int printf(const char *, ...);

int main() {
    int i;
    double A[64];
    double C[64];
    for (i = 0; i < 64; i++) {
        A[i] = i * 0.5;
    }
    #pragma omp parallel for check
    for (i = 0; i < 64; i++) {
        C[i] = A[i] * 2.0;
    }
    {
        float A[4];
        A[0] = 1.0;
        printf("%g\n", A[0]);
    }
    printf("%g\n", C[5]);
    return 0;
}
