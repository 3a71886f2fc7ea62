int printf(const char *, ...);
double cos(double);
double sin(double);

double myTable[34][34];
double myTableOut[34][34];

void init(double t[34][34], double u[34][34]) {
    int i, j;
    for (i = 0; i < 34; i++) {
        for (j = 0; j < 34; j++) {
            t[i][j] = (i * 7 + j * 3) % 11 * 0.25;
            u[i][j] = 0;
        }
    }
}

void displayRegion(double t[34][34]) {
    int i, j;
    double sum = 0;
    for (i = 0; i < 34; i++) {
        for (j = 0; j < 34; j++) {
            sum += t[i][j];
        }
    }
    printf("region:%.12g\n", sum);
}

int main() {
    int index = 0;
    double theDiffNorm = 1;
    int iterations = 10;
    int i, j;
    double diffsum, diff, diffmul;
    init(myTable, myTableOut);
    for (index = 0; (index < iterations); index++) {
        #pragma omp parallel for shared(myTableOut) check
        for (i = 1; i < (1 + 32 + 1) - 1; i++) {
            for (j = 1; j < (1 + 32 + 1) - 1; j++) {
                double neighbor = cos(myTable[i - 1][j]) + sin(myTable[i][j - 1]) + sin(myTable[i][j + 1]) + cos(myTable[i + 1][j]);
                myTableOut[i][j] = neighbor / 3;
            }
        }
        theDiffNorm = 0.0;
        diffsum = theDiffNorm;
        #pragma omp parallel for reduction(+:diffsum) shared(myTable) fixed(11, 3, 0)
        for (i = 1; i < (1 + 32 + 1) - 1; i++) {
            for (j = 1; j < (1 + 32 + 1) - 1; j++) {
                diff = myTableOut[i][j] - myTable[i][j];
                diffmul = diff * diff;
                diffsum += diffmul;
                myTable[i][j] = myTableOut[i][j];
            }
        }
        theDiffNorm = diffsum;
    }
    displayRegion(myTable);
    printf("theDiffNorm:%.12g\n", theDiffNorm);
    return 0;
}
