int printf(const char *, ...);

int main() {
    int i;
    double A[64];
    double B[64];
    for (i = 0; i < 64; i++) {
        A[i] = i * 0.5;
        B[i] = 1.0;
    }
    #pragma omp parallel for check
    for (i = 0; i < 64; i++) {
        B[i] = B[i] + A[i];
    }
    {
        double A[64];
        for (i = 0; i < 64; i++) {
            A[i] = 2.0;
        }
        #pragma omp parallel for check
        for (i = 0; i < 64; i++) {
            B[i] = B[i] * A[i];
        }
    }
    printf("%g\n", B[5]);
    return 0;
}
