int printf(const char *, ...);

int main() {
    int i;
    double A[16];
    double B[16];
    for (i = 0; i < 16; ++i) {
        A[i] = i;
    }
    #pragma omp parallel for check
    for (i = 0; i < 16; ++i) {
        A[i] = A[i] * 2.0;
        B[i] = A[i] + 1.0;
    }
    printf("%f\n", B[3]);
    printf("%f\n", A[5]);
    return 0;
}
