int printf(const char *, ...);

double scale = 2.0;

double scaled(double v) {
    return v * scale;
}

int main() {
    int i;
    double A[16];
    for (i = 0; i < 16; i++) {
        A[i] = i;
    }
    #pragma omp parallel for check
    for (i = 0; i < 16; i++) {
        A[i] = scaled(A[i]);
    }
    printf("%f\n", A[3]);
    return 0;
}
