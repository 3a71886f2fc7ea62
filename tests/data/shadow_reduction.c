int printf(const char *, ...);

int main() {
    int i;
    double s;
    double A[64];
    for (i = 0; i < 64; i++) {
        A[i] = i + 0.5;
    }
    s = 0.0;
    #pragma omp parallel for reduction(+:s) check
    for (i = 0; i < 64; i++) {
        s += A[i];
    }
    printf("%g\n", s);
    {
        int s = 2;
        printf("%d\n", s);
    }
    return 0;
}
