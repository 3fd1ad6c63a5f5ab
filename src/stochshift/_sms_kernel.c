/* One block of untraced distance SMS steps, with the SMS stop rule: stop
 * once every point has been drawn, with a shift below tolerance, since the
 * last shift at or above it.
 *
 * The arithmetic follows the numpy path in algorithms._sms_move step for
 * step: squared distances from the cached-norm identity grouped as
 * ((x_j . x_i) * -2 + |x_j|^2) + |x_i|^2, the weight G(t) = 1[t < 1] as a
 * 0/1 value with an integer-valued total for alpha = 1 and
 * alpha * (1 - t)_+^(alpha - 1) for alpha >= 2, and the drawn point
 * averaged together with its own weight.  The plain loop sums in index
 * order; BLAS sums in its own order and the grid (below) by cells, so
 * positions agree with the numpy path to rounding.  Build without
 * -ffast-math and with -ffp-contract=off, so the compiler keeps the order
 * of the sums and the exactness of the two-sum below.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Weight of one squared distance, alpha >= 2. */
static inline double poly_weight(double sq, double inv_h2, int64_t alpha)
{
    double t = (sq > 0.0 ? sq : 0.0) * inv_h2;
    double b = 1.0 - t;
    b = b > 0.0 ? b : 0.0;
    double p = b;
    for (int64_t k = 2; k < alpha; k++)
        p *= b;
    return (double)alpha * p;
}

/* Move point i onto the weighted mean of the state; returns its shift.
 * x and acc are d-length scratch. */
static double move_generic(double *pts, double *sqn, int64_t n, int64_t d, int64_t i,
                           double h2, double inv_h2, int64_t alpha, double *x, double *acc)
{
    const double sqi = sqn[i];
    double total = 0.0;
    memcpy(x, pts + i * d, (size_t)d * sizeof(double));
    memset(acc, 0, (size_t)d * sizeof(double));
    for (int64_t j = 0; j < n; j++) {
        const double *p = pts + j * d;
        double dot = 0.0;
        for (int64_t k = 0; k < d; k++)
            dot += p[k] * x[k];
        const double sq = (dot * -2.0 + sqn[j]) + sqi;
        const double w = alpha == 1 ? (double)(sq < h2) : poly_weight(sq, inv_h2, alpha);
        if (w != 0.0) {
            for (int64_t k = 0; k < d; k++)
                acc[k] += w * p[k];
            total += w;
        }
    }
    double shift2 = 0.0, norm2 = 0.0;
    double *row = pts + i * d;
    for (int64_t k = 0; k < d; k++) {
        const double v = acc[k] / total;
        const double dx = v - x[k];
        shift2 += dx * dx;
        norm2 += v * v;
        row[k] = v;
    }
    sqn[i] = norm2;
    return sqrt(shift2);
}

/* Exact sums for the cell aggregates: a double-double accumulator
 * (Knuth's two-sum), so adding and removing positions over a whole run
 * leaves no rounding residue that a plain double sum would keep. */
typedef struct {
    double hi, lo;
} dd;

static inline void dd_add(dd *a, double b)
{
    const double s = a->hi + b;
    const double bb = s - a->hi;
    const double e = (a->hi - (s - bb)) + (b - bb) + a->lo;
    a->hi = s + e;
    a->lo = e - (a->hi - s);
}

/* A uniform grid of cells of side h / GRID_DIV over the bounding box of
 * the state, for d = 2 and the uniform weight (alpha = 1).  Each cell
 * keeps the count and the exact sum of the positions of its points.
 * SMS moves a point onto a convex combination of the state, so every
 * position stays inside the box for the whole block (cell_coord clamps
 * what rounding puts outside it).
 *
 * A step visits the cells that meet the square of side 2 * reach (just
 * over 2h) around x_i.
 * A cell lying inside the h-ball with a margin well above the rounding
 * of the cached-norm identity contributes its sum and count at once; a
 * cell outside it with that margin contributes nothing; the points of
 * the remaining cells are tested one by one with the identity, exactly
 * as the plain loop tests them.  So the same points are averaged,
 * and only the rounding of their sum differs.  Once clusters have
 * shrunk to a few cells, a step costs O(cells) instead of O(n).
 *
 * The points of a cell form a doubly linked list, built in index order;
 * a point that changes cell is unlinked and pushed onto the front of its
 * new cell's list. */
#define GRID_DIV 4
#define GRID_MIN_N 128 /* below about this n the plain loop is faster */
#define GRID_SPAN (2 * GRID_DIV + 4) /* at least the columns a step visits */

typedef struct {
    double x0, y0, s, inv_s, pad, errb, reach;
    int64_t nx, ny;
    int64_t *head;  /* nc: first point of cell c, or -1 */
    int64_t *count; /* nc: points in cell c */
    int64_t *cell;  /* n: the cell of point j */
    int64_t *next, *prev; /* n: list links, -1 at either end */
    dd *sx, *sy;    /* nc: exact coordinate sums */
} grid_t;

/* fmax without its NaN rules, which keep gcc from inlining it */
static inline double dmax(double a, double b)
{
    return a > b ? a : b;
}

static int64_t cell_coord(double v, double origin, double inv_s, int64_t nc)
{
    double c = floor((v - origin) * inv_s);
    if (!(c >= 0.0))
        return 0;
    return c >= (double)nc ? nc - 1 : (int64_t)c;
}

static int64_t cell_of(const grid_t *g, double x, double y)
{
    return cell_coord(y, g->y0, g->inv_s, g->ny) * g->nx + cell_coord(x, g->x0, g->inv_s, g->nx);
}

/* Put point j at the front of cell c's list. */
static void cell_push(grid_t *g, int64_t j, int64_t c)
{
    const int64_t first = g->head[c];
    g->prev[j] = -1;
    g->next[j] = first;
    if (first >= 0)
        g->prev[first] = j;
    g->head[c] = j;
    g->cell[j] = c;
    g->count[c]++;
}

/* Take point j out of its cell's list. */
static void cell_unlink(grid_t *g, int64_t j)
{
    const int64_t c = g->cell[j];
    if (g->prev[j] >= 0)
        g->next[g->prev[j]] = g->next[j];
    else
        g->head[c] = g->next[j];
    if (g->next[j] >= 0)
        g->prev[g->next[j]] = g->prev[j];
    g->count[c]--;
}

static void grid_free(grid_t *g)
{
    free(g->head);
    free(g->sx);
}

/* Build the grid over the current state; returns 0 when it would need
 * too many cells (a spread far beyond h) or memory runs out. */
static int grid_build(grid_t *g, const double *pts, int64_t n, double h2)
{
    double xmin = pts[0], xmax = pts[0], ymin = pts[1], ymax = pts[1];
    for (int64_t j = 1; j < n; j++) {
        const double x = pts[2 * j], y = pts[2 * j + 1];
        xmin = x < xmin ? x : xmin;
        xmax = x > xmax ? x : xmax;
        ymin = y < ymin ? y : ymin;
        ymax = y > ymax ? y : ymax;
    }
    g->s = sqrt(h2) / GRID_DIV;
    g->inv_s = 1.0 / g->s;
    const double nxf = floor((xmax - xmin) * g->inv_s) + 1.0;
    const double nyf = floor((ymax - ymin) * g->inv_s) + 1.0;
    if (!(nxf * nyf <= 16.0 * (double)n + 4096.0))
        return 0;
    g->x0 = xmin;
    g->y0 = ymin;
    g->nx = (int64_t)nxf;
    g->ny = (int64_t)nyf;
    /* Margins: a point may sit outside its cell by the rounding of its
     * cell coordinate, and the identity's rounding is below
     * 32 eps (|x_j|^2 + |x_i|^2); both are taken 100x larger. */
    const double scale = fmax(fmax(fabs(xmin), fabs(xmax)), fmax(fabs(ymin), fabs(ymax)));
    g->pad = 1e-12 * (scale + g->s);
    g->errb = 1e-12 * (4.0 * scale * scale + h2);
    /* a point the identity puts inside the ball lies within this reach;
     * far from the origin the margins widen it past what a step may visit */
    g->reach = sqrt(h2 + 2.0 * g->errb) + g->pad;
    if (!(2.0 * g->reach * g->inv_s + 3.0 <= GRID_SPAN))
        return 0;
    const int64_t nc = g->nx * g->ny;
    g->head = malloc((size_t)(2 * nc + 3 * n) * sizeof(int64_t));
    g->sx = malloc((size_t)(2 * nc) * sizeof(dd));
    if (!g->head || !g->sx) {
        grid_free(g);
        return 0;
    }
    g->count = g->head + nc;
    g->cell = g->count + nc;
    g->next = g->cell + n;
    g->prev = g->next + n;
    g->sy = g->sx + nc;
    for (int64_t c = 0; c < nc; c++) {
        g->head[c] = -1;
        g->count[c] = 0;
        g->sx[c] = (dd){0.0, 0.0};
        g->sy[c] = (dd){0.0, 0.0};
    }
    for (int64_t j = 0; j < n; j++) {
        const int64_t c = cell_of(g, pts[2 * j], pts[2 * j + 1]);
        g->cell[j] = c;
        dd_add(&g->sx[c], pts[2 * j]);
        dd_add(&g->sy[c], pts[2 * j + 1]);
    }
    for (int64_t j = n - 1; j >= 0; j--) /* front pushes, so index order */
        cell_push(g, j, g->cell[j]);
    return 1;
}

static double move_grid(grid_t *g, double *pts, double *sqn, int64_t i, double h2)
{
    const double x0 = pts[2 * i], x1 = pts[2 * i + 1], sqi = sqn[i];
    const double reach = g->reach;
    const int64_t cx0 = cell_coord(x0 - reach, g->x0, g->inv_s, g->nx);
    const int64_t cx1 = cell_coord(x0 + reach, g->x0, g->inv_s, g->nx);
    const int64_t cy0 = cell_coord(x1 - reach, g->y0, g->inv_s, g->ny);
    const int64_t cy1 = cell_coord(x1 + reach, g->y0, g->inv_s, g->ny);
    /* squared farthest and nearest x-distances from x_i to each column */
    double far_x[GRID_SPAN], near_x[GRID_SPAN];
    for (int64_t cx = cx0; cx <= cx1; cx++) {
        const double lx = g->x0 + (double)cx * g->s - g->pad;
        const double ux = g->x0 + (double)(cx + 1) * g->s + g->pad;
        const double fx = dmax(fabs(x0 - lx), fabs(x0 - ux));
        const double nx_ = x0 < lx ? lx - x0 : (x0 > ux ? x0 - ux : 0.0);
        far_x[cx - cx0] = fx * fx;
        near_x[cx - cx0] = nx_ * nx_;
    }
    double ax = 0.0, ay = 0.0;
    int64_t total = 0;
    for (int64_t cy = cy0; cy <= cy1; cy++) {
        const double ly = g->y0 + (double)cy * g->s - g->pad;
        const double uy = g->y0 + (double)(cy + 1) * g->s + g->pad;
        const double fy = dmax(fabs(x1 - ly), fabs(x1 - uy));
        const double ny_ = x1 < ly ? ly - x1 : (x1 > uy ? x1 - uy : 0.0);
        const double far_y = fy * fy + g->errb, near_y = ny_ * ny_ - g->errb;
        for (int64_t cx = cx0; cx <= cx1; cx++) {
            const int64_t c = cy * g->nx + cx;
            if (g->count[c] == 0)
                continue;
            if (far_x[cx - cx0] + far_y < h2) {
                ax += g->sx[c].hi;
                ay += g->sy[c].hi;
                total += g->count[c];
            } else if (near_x[cx - cx0] + near_y < h2) {
                for (int64_t j = g->head[c]; j >= 0; j = g->next[j]) {
                    const double p0 = pts[2 * j], p1 = pts[2 * j + 1];
                    const double sq = ((p0 * x0 + p1 * x1) * -2.0 + sqn[j]) + sqi;
                    /* no branch: whether a point of a boundary cell is
                     * inside the ball is unpredictable */
                    const int64_t in = sq < h2;
                    ax += (double)in * p0;
                    ay += (double)in * p1;
                    total += in;
                }
            }
        }
    }
    const double n0 = ax / (double)total, n1 = ay / (double)total;
    const double d0 = n0 - x0, d1 = n1 - x1;
    pts[2 * i] = n0;
    pts[2 * i + 1] = n1;
    sqn[i] = n0 * n0 + n1 * n1;

    const int64_t from = g->cell[i], to = cell_of(g, n0, n1);
    dd_add(&g->sx[from], -x0);
    dd_add(&g->sy[from], -x1);
    dd_add(&g->sx[to], n0);
    dd_add(&g->sy[to], n1);
    if (from != to) {
        cell_unlink(g, i);
        cell_push(g, i, to);
    }
    return sqrt(d0 * d0 + d1 * d1);
}

/* Run the steps idx[0..m) on pts (n x d, row-major) with cached squared
 * norms sqn, writing each step's shift to shifts.  A step of point i with
 * shift < tol stamps i with the current epoch and one with shift >= tol
 * starts a new epoch; the run stops once all n points carry the current
 * epoch.  The stop state lives in stamp (n epochs) and state = {epoch,
 * covered, converged}, and carries over between blocks.  Returns the
 * number of steps taken; state[2] is set to 1 when the stop rule fired on
 * the last of them.  A step runs move_grid when the grid applies and the
 * plain loop move_generic otherwise; scratch holds its 2 * d doubles. */
int64_t sms_block(double *pts, double *sqn, int64_t n, int64_t d,
                  const int64_t *idx, int64_t m, double h2, int64_t alpha,
                  double tol, int64_t *stamp, int64_t *state, double *shifts,
                  double *scratch)
{
    const double inv_h2 = 1.0 / h2;
    int64_t epoch = state[0], covered = state[1];
    int64_t s = 0;
    grid_t g;
    const int gridded = d == 2 && alpha == 1 && n >= GRID_MIN_N && grid_build(&g, pts, n, h2);
    state[2] = 0;
    while (s < m) {
        const int64_t i = idx[s];
        const double shift = gridded ? move_grid(&g, pts, sqn, i, h2)
            : move_generic(pts, sqn, n, d, i, h2, inv_h2, alpha, scratch, scratch + d);
        shifts[s++] = shift;
        if (shift < tol) {
            if (stamp[i] != epoch) {
                stamp[i] = epoch;
                if (++covered == n) {
                    state[2] = 1;
                    break;
                }
            }
        } else {
            epoch++;
            covered = 0;
        }
    }
    if (gridded)
        grid_free(&g);
    state[0] = epoch;
    state[1] = covered;
    return s;
}
