int main() {
    int i;
    int n = 64;
    float A[n], B[n];
    for (i = 0; i < n; i++) {
        A[i] = i;
    }
    #pragma omp parallel shared(A, B) private(i)
    {
        #pragma omp for check
        for (i = 0; i < n; i++) {
            B[i] = A[i] * 2.0;
        }
        #pragma omp for
        for (i = 0; i < n; i++) {
            A[i] = B[i] + 1.0;
        }
    }
    printf("%f\n", A[1]);
    return 0;
}
