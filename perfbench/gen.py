"""Seeded synthetic inputs for the `wide2` and `large-unit` workloads.

Both programs stay inside hmppgen's supported C subset, compile with
`gcc -w -lm` and run in a few milliseconds.  The seed varies only numeric
literals and the choice between operations of equal cost; the program
shape (blocks, loops, arrays, statements) is the workload's definition and
is the same for every seed, so run-to-run spread measures hmppgen, not the
generator.

    python3 perfbench/gen.py wide2 7 > wide2.c
"""

from __future__ import annotations

import random
import sys

N = 64  # wide2: 64x64 double arrays
M = 48  # large-unit: 48x48 double arrays

PROLOGUE = """int printf(const char *, ...);
double cos(double);
double sin(double);
double fabs(double);
"""


def _lit(rng: random.Random, lo: int, hi: int, scale: float = 0.125) -> str:
    return repr(rng.randint(lo, hi) * scale)


def wide2(seed: int) -> str:
    """Two group-eligible `check` blocks sharing 64x64 arrays inside a time
    loop: 43 x 43 = 1849 variants of one small unit (the shape of the
    paper's table 5 program)."""
    rng = random.Random("wide2:%d" % seed)
    trig = [rng.choice(("cos", "sin")) for _ in range(4)]
    k1, k2, k3 = rng.randint(3, 9), rng.randint(2, 7), rng.randint(7, 13)
    return PROLOGUE + """
double grid[%(n)d][%(n)d];
double next[%(n)d][%(n)d];

void init(double t[%(n)d][%(n)d], double u[%(n)d][%(n)d]) {
    int i, j;
    for (i = 0; i < %(n)d; i++) {
        for (j = 0; j < %(n)d; j++) {
            t[i][j] = (i * %(k1)d + j * %(k2)d) %% %(k3)d * %(scale)s;
            u[i][j] = 0;
        }
    }
}

void display(double t[%(n)d][%(n)d]) {
    int i, j;
    double sum = 0;
    for (i = 0; i < %(n)d; i++) {
        for (j = 0; j < %(n)d; j++) {
            sum += t[i][j];
        }
    }
    printf("region:%%.12g\\n", sum);
}

int main() {
    int step = 0;
    double norm = 1;
    int steps = 8;
    int i, j;
    double diffsum, diff, diffmul;
    init(grid, next);
    for (step = 0; step < steps; step++) {
        #pragma omp parallel for shared(next) check
        for (i = 1; i < %(n)d - 1; i++) {
            for (j = 1; j < %(n)d - 1; j++) {
                double around = %(t0)s(grid[i - 1][j]) + %(t1)s(grid[i][j - 1]) + %(t2)s(grid[i][j + 1]) + %(t3)s(grid[i + 1][j]);
                next[i][j] = around * %(w)s;
            }
        }
        norm = 0.0;
        diffsum = norm;
        #pragma omp parallel for reduction(+:diffsum) shared(grid) check
        for (i = 1; i < %(n)d - 1; i++) {
            for (j = 1; j < %(n)d - 1; j++) {
                diff = next[i][j] - grid[i][j];
                diffmul = diff * diff;
                diffsum += diffmul;
                grid[i][j] = next[i][j];
            }
        }
        norm = diffsum;
    }
    display(grid);
    printf("norm:%%.12g\\n", norm);
    return 0;
}
""" % dict(n=N, k1=k1, k2=k2, k3=k3, scale=_lit(rng, 1, 4),
           t0=trig[0], t1=trig[1], t2=trig[2], t3=trig[3],
           w=_lit(rng, 1, 3))


# Pinned signatures of the eleven `fixed` blocks of `large-unit`, in block
# order.  Every one is feasible and none sets the group bit, so only the
# `check` block varies the group structure.
LARGE_FIXED = [
    (0, 0, 1), (8, 0, 0), (9, 1, 0), (0, 1, 0), (10, 0, 0), (0, 0, 1),
    (11, 1, 0), (8, 1, 0), (0, 0, 1), (9, 0, 0), (2, 1, 0),
]
LARGE_CHECK_AT = 6  # the `check` block is the seventh of twelve kernels
LARGE_ARRAYS = 10
LARGE_HELPERS = 6


def _helpers(rng: random.Random) -> list[str]:
    """Small functions called from kernel bodies; hmppgen must inline them
    into every codelet that reaches them."""
    out = []
    for h in range(LARGE_HELPERS):
        out.append("""double mix%d(double x, double y) {
    double r = x * %s %s y * %s;
    double s = r * %s + x;
    return s;
}
""" % (h, _lit(rng, 1, 6, 0.0625), rng.choice(("+", "-")),
       _lit(rng, 1, 6, 0.0625), _lit(rng, 1, 4, 0.0625)))
    return out


def _kernel(rng: random.Random, index: int, pragma: str) -> list[str]:
    """One annotated 2-D loop nest: reads two arrays through two helpers and
    writes a third."""
    src = index % LARGE_ARRAYS
    other = (index + 3) % LARGE_ARRAYS
    dst = (index + 1) % LARGE_ARRAYS
    h1, h2 = index % LARGE_HELPERS, (index + 2) % LARGE_HELPERS
    return [
        "        #pragma omp parallel for %s" % pragma,
        "        for (i = 1; i < %d - 1; i++) {" % M,
        "            for (j = 1; j < %d - 1; j++) {" % M,
        "                double left = mix%d(a%d[i][j - 1], a%d[i][j + 1]);"
        % (h1, src, src),
        "                double up = mix%d(a%d[i - 1][j], a%d[i + 1][j]);"
        % (h2, other, other),
        "                double centre = a%d[i][j] * %s;"
        % (src, _lit(rng, 1, 4)),
        "                double spread = left %s up * %s;"
        % (rng.choice(("+", "-")), _lit(rng, 1, 3)),
        "                a%d[i][j] = centre + spread * %s;"
        % (dst, _lit(rng, 1, 3)),
        "            }",
        "        }",
    ]


def _cpu_between(rng: random.Random, index: int) -> list[str]:
    """Two CPU statements after each kernel: read one array element into a
    running sum and nudge another array's corner.  They give the context
    analysis CPU reads and writes to place transfers around.  The arrays
    the `check` block reads are left alone just before it, so it may share
    them with its predecessor in a group."""
    dst = (index + 1) % LARGE_ARRAYS
    touched = (index + 5) % LARGE_ARRAYS
    lines = ["        acc = acc + a%d[%d][%d] * %s;"
             % (dst, 1 + index % (M - 2), 2 + index % (M - 3),
                _lit(rng, 1, 4))]
    if index != LARGE_CHECK_AT - 1:
        lines.append("        a%d[0][%d] = acc * %s;"
                     % (touched, index, _lit(rng, 1, 2, 0.0078125)))
    else:
        lines.append("        acc = acc * %s;" % _lit(rng, 6, 7))
    return lines


def large_unit(seed: int) -> str:
    """One `check` block among eleven `fixed` blocks in a ~330-line unit,
    with helpers inlined into the kernels and CPU statements between them:
    43 variants that each carry twelve kernels."""
    rng = random.Random("large-unit:%d" % seed)
    arrays = ["double a%d[%d][%d];" % (k, M, M) for k in range(LARGE_ARRAYS)]
    init = []
    for k in range(LARGE_ARRAYS):
        init += ["void init%d(double t[%d][%d]) {" % (k, M, M),
                 "    int i, j;",
                 "    for (i = 0; i < %d; i++) {" % M,
                 "        for (j = 0; j < %d; j++) {" % M,
                 "            t[i][j] = (i * %d + j * %d) %% %d * %s;"
                 % (rng.randint(2, 9), rng.randint(2, 9), rng.randint(5, 13),
                    _lit(rng, 1, 4)),
                 "        }",
                 "    }",
                 "}",
                 ""]
    check = ["double checksum(double t[%d][%d]) {" % (M, M),
             "    int i, j;",
             "    double sum = 0;",
             "    for (i = 0; i < %d; i++) {" % M,
             "        for (j = 0; j < %d; j++) {" % M,
             "            sum += fabs(t[i][j]);",
             "        }",
             "    }",
             "    return sum;",
             "}"]
    body = ["int main() {",
            "    int step, i, j;",
            "    double acc = 0;",
            "    int steps = 3;"]
    body += ["    init%d(a%d);" % (k, k) for k in range(LARGE_ARRAYS)]
    body.append("    for (step = 0; step < steps; step++) {")
    fixed = iter(LARGE_FIXED)
    for index in range(len(LARGE_FIXED) + 1):
        if index == LARGE_CHECK_AT:
            pragma = "check"
        else:
            pragma = "fixed(%d, %d, %d)" % next(fixed)
        body += _kernel(rng, index, pragma)
        body += _cpu_between(rng, index)
    body.append("    }")
    for k in range(LARGE_ARRAYS):
        body.append('    printf("a%d:%%.9g\\n", checksum(a%d));' % (k, k))
    body += ['    printf("acc:%.9g\\n", acc);', "    return 0;", "}"]
    return "\n".join([PROLOGUE, "\n".join(arrays) + "\n"] + _helpers(rng) +
                     ["\n".join(init), "\n".join(check) + "\n",
                      "\n".join(body) + "\n"])


GENERATORS = {"wide2": wide2, "large-unit": large_unit}


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in GENERATORS:
        sys.exit("usage: gen.py {%s} SEED" % ",".join(GENERATORS))
    sys.stdout.write(GENERATORS[sys.argv[1]](int(sys.argv[2])))
