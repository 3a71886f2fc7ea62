int printf(const char *, ...);

int calls = 0;

int h(int a) {
    return a * 3;
}
int g(int a) {
    return a + 2;
}
int f(int a) {
    calls = calls + 1;
    return a * a;
}
int main() {
    int l;
    l = f(g(3)) + 1;
    int m = f(g(4));
    f(g(h(5)));
    int a[f(3)];
    a[8] = l + m;
    printf("%d %d %d %d\n", l, m, a[8], calls);
    return 0;
}
