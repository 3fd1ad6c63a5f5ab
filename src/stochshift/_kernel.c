/* The package's one compiled kernel.  sms_block runs one block of
 * distance SMS steps and knn_block one block of score-matrix SMS steps
 * (affinity.knn_sms_run), both under one stop rule, stop_rule below:
 * stop once every point has been drawn, with a shift below tolerance,
 * since the last shift at or above it.  A distance block handed
 * increment and gradient buffers also gives each step's objective
 * increment and partial-gradient norm: from a second pass over all n
 * points (move_traced), or from the grid's cells near the old and new
 * positions (move_cells).  shift_rows is the mean-shift batch map of
 * algorithms._shift_rows: every query row moves onto the weighted mean
 * of a sample, as MS's probes do against the input.  One rule,
 * grid_build's, says when both query a cell grid, SMS on its moving state
 * and the map on its fixed sample: in 2-D with n >= GRID_MIN_N, for every
 * profile.  bms_sweeps runs blurring mean-shift sweeps, each the same map
 * of the state against itself, with each unordered pair evaluated once:
 * n (n + 1) / 2 pairs a sweep, no grid.
 *
 * The arithmetic follows the numpy path (algorithms._sms_move and
 * algorithms._shift_rows) step for step: squared distances from the
 * cached-norm identity grouped as ((x_j . x) * -2 + |x_j|^2) + |x|^2 for
 * a query x (the numpy batch map adds |x|^2 first), the weight
 * G(t) = 1[t < 1] as a 0/1 value with an integer-valued total for
 * alpha = 1 and alpha * (1 - t)_+^(alpha - 1) for alpha >= 2, and in SMS
 * the drawn point averaged together with its own weight.  The plain loop
 * sums in index order; BLAS sums in its own order, and the grid by cells,
 * some of them whole from their moments, so positions, increments and
 * gradient norms agree with the numpy path to rounding.  Tracing only
 * adds work after a move, so a traced run moves its points to the bits of
 * the untraced one on every path.  The neighbour mean of knn_block sums
 * its k rows in order and divides by k, as the numpy move's cumulative
 * sum over the (k, d) gather does in every d, so its positions match
 * numpy's bit for bit; its shifts are index-order sums, where numpy's dot
 * product is BLAS's.
 * Build without -ffast-math and with -ffp-contract=off, so the compiler
 * keeps the order of the sums and the exactness of the two-sum below.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Each export starts a cache line, so that where its short loops fall
 * within a line does not move with the code above it: one placement of
 * knn_block 32 bytes off put a loop across a line boundary and slowed its
 * steps by about 10%. */
#define EXPORT __attribute__((aligned(64)))

/* The weight G of one squared distance: 1[sq < h^2] as a 0/1 value for
 * alpha = 1, alpha * (1 - sq / h^2)_+^(alpha - 1) for alpha >= 2. */
static inline __attribute__((always_inline)) double
weight(double sq, double h2, double inv_h2, int64_t alpha)
{
    if (alpha == 1)
        return (double)(sq < h2);
    double b = 1.0 - (sq > 0.0 ? sq : 0.0) * inv_h2;
    b = b > 0.0 ? b : 0.0;
    double p = b;
    for (int64_t k = 2; k < alpha; k++)
        p *= b;
    return (double)alpha * p;
}

/* The cached-norm identity's squared distance from point p (squared norm
 * sqn_j) to x (squared norm sqx), grouped as the numpy path groups it. */
static inline __attribute__((always_inline)) double
sq_identity(const double *p, int64_t d, const double *x, double sqn_j, double sqx)
{
    double dot = 0.0;
    for (int64_t k = 0; k < d; k++)
        dot += p[k] * x[k];
    return (dot * -2.0 + sqn_j) + sqx;
}

/* The weighted sum of the n points of pts (n x d, squared norms sqn)
 * around x, whose squared norm is sqx: acc (d-length) receives
 * sum_j w_j p_j, and the weight total is returned.  When sq is not NULL,
 * sq[j] receives the squared distance from x to point j.  Always
 * inlined, so a call with a constant NULL keeps no store or test of sq
 * in its loop. */
static inline __attribute__((always_inline)) double
weighted_sum(const double *pts, const double *sqn, int64_t n, int64_t d, const double *x, double sqx,
             double h2, double inv_h2, int64_t alpha, double *acc, double *sq)
{
    double wsum = 0.0;
    memset(acc, 0, (size_t)d * sizeof(double));
    for (int64_t j = 0; j < n; j++) {
        const double sqj = sq_identity(pts + j * d, d, x, sqn[j], sqx);
        if (sq)
            sq[j] = sqj;
        const double w = weight(sqj, h2, inv_h2, alpha);
        if (w != 0.0) { /* a zero weight adds nothing */
            for (int64_t k = 0; k < d; k++)
                acc[k] += w * pts[j * d + k];
            wsum += w;
        }
    }
    return wsum;
}

/* Move point i, whose old position is x, onto acc / wsum and update its
 * squared norm; returns its shift. */
static inline __attribute__((always_inline)) double
place_mean(double *pts, double *sqn, int64_t d, int64_t i, const double *x, const double *acc, double wsum)
{
    double shift2 = 0.0, norm2 = 0.0;
    double *row = pts + i * d;
    for (int64_t k = 0; k < d; k++) {
        const double v = acc[k] / wsum;
        const double dx = v - x[k];
        shift2 += dx * dx;
        norm2 += v * v;
        row[k] = v;
    }
    sqn[i] = norm2;
    return sqrt(shift2);
}

/* dx = new - x_old, and returns the cross term dx . (x_old + new) of the
 * increment's base difference. */
static inline __attribute__((always_inline)) double
step_cross(int64_t d, const double *x, const double *new, double *dx)
{
    double cross = 0.0;
    for (int64_t k = 0; k < d; k++) {
        dx[k] = new[k] - x[k];
        cross += dx[k] * (x[k] + new[k]);
    }
    return cross;
}

/* Point p's term k(t_new) - k(t_old) of the objective increment of a step
 * from x_old to new (squared norm sqnew_i), with dx and cross from
 * step_cross and sq_old its squared distance to x_old.  With
 * b = (1 - t)_+ the term is (b_new - b_old) * sum_p b_new^p
 * b_old^(alpha - 1 - p), and where both bases are positive the base
 * difference is the inner product ((x_j . dx) * 2 - dx . (x_old + new))
 * / h^2, so increments far below the profile values keep their relative
 * accuracy.  The term is +0.0 when both bases are 0. */
static inline __attribute__((always_inline)) double
increment_term(const double *p, int64_t d, double sqn_j, double sq_old, const double *new, double sqnew_i,
               const double *dx, double cross, double inv_h2, int64_t alpha)
{
    double dot_new = 0.0, dot_dx = 0.0;
    for (int64_t k = 0; k < d; k++) {
        dot_new += p[k] * new[k];
        dot_dx += p[k] * dx[k];
    }
    const double sqnew = (dot_new * -2.0 + sqn_j) + sqnew_i;
    double b_old = 1.0 - sq_old * inv_h2, b_new = 1.0 - sqnew * inv_h2;
    b_old = b_old > 0.0 ? b_old : 0.0;
    b_new = b_new > 0.0 ? b_new : 0.0;
    const double dbase = b_old > 0.0 && b_new > 0.0 ? (dot_dx * 2.0 - cross) * inv_h2 : b_new - b_old;
    /* sum_p b_new^p b_old^(alpha - 1 - p) by Horner's rule in b_new */
    double poly = 1.0, b_old_p = 1.0;
    for (int64_t k = 1; k < alpha; k++) {
        b_old_p *= b_old;
        poly = poly * b_new + b_old_p;
    }
    return dbase * poly;
}

/* A step of the plain loop: move point i onto the weighted mean of all n
 * points, then give its partial-gradient norm (2 / h^2) W |dx| into *grad
 * when grad is not NULL, and when delta is not NULL the objective
 * increment sum_{j != i} k(t_new) - k(t_old) into *delta, in index order,
 * in algorithms._sms_move's cancellation-free form (increment_term).
 * Returns the shift.  scratch holds 2 * d + n doubles; the last n keep
 * the squared distances to the old position for the increment.  Always
 * inlined, so a call with constant NULL delta and grad keeps neither the
 * store of the distances nor the passes after the move. */
static inline __attribute__((always_inline)) double
move_traced(double *pts, double *sqn, int64_t n, int64_t d, int64_t i, double h2, double inv_h2,
            int64_t alpha, double *scratch, double *delta, double *grad)
{
    double *x = scratch, *dx = scratch + d, *sq = delta ? scratch + 2 * d : NULL;
    memcpy(x, pts + i * d, (size_t)d * sizeof(double));
    const double total = weighted_sum(pts, sqn, n, d, x, sqn[i], h2, inv_h2, alpha, dx, sq);
    const double shift = place_mean(pts, sqn, d, i, x, dx, total);
    if (grad)
        *grad = (2.0 * inv_h2 * total) * shift;
    if (!delta)
        return shift;
    const double *new = pts + i * d;
    const double cross = step_cross(d, x, new, dx);
    double sum = 0.0;
    for (int64_t j = 0; j < n; j++)
        if (j != i) /* the self term is zero */
            sum += increment_term(pts + j * d, d, sqn[j], sq[j], new, sqn[i], dx, cross, inv_h2, alpha);
    *delta = sum;
    return shift;
}

/* Exact sums for the cell aggregates: a double-double accumulator
 * (Knuth's two-sum), so adding and removing positions and moments over a
 * whole run leaves no rounding residue that a plain double sum would
 * keep. */
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
 * a set of points, for d = 2.  Each cell keeps the count and the exact
 * sums of the positions of its points, and for alpha = 2 the exact sums
 * of their second and third moments about the cell's centre.
 * SMS builds it on the state and moves a point onto a convex combination
 * of the state, so every position stays inside the box for the whole
 * block (cell_coord clamps what rounding puts outside it); shift_rows
 * builds it on the sample once per call and never changes it.  Both query
 * it through grid_query, at every alpha.
 *
 * A query around x visits the cells that meet the square of side
 * 2 * reach (just over 2h) around it.
 * A cell lying inside the h-ball with a margin well above the rounding
 * of the cached-norm identity contributes its share at once: its sum and
 * count for alpha = 1, and for alpha = 2 its points' polynomial weights
 * expanded in its moments, exact up to rounding (the profiles are
 * polynomials, so nothing is truncated).  A cell outside it with that
 * margin contributes nothing; the points of the remaining cells, and for
 * alpha >= 3 of every cell that is not outside, are weighed one by one
 * with the identity, exactly as the plain loop weighs them.  So the same
 * points are averaged, and only the rounding of the sums differs.  Once
 * clusters have shrunk to a few cells, a step costs O(cells) instead of
 * O(n) for alpha <= 2, and so does its increment (grid_increment).
 *
 * The points of a cell form a doubly linked list, built in index order;
 * in SMS a point that changes cell is unlinked and pushed onto the front
 * of its new cell's list. */
#define GRID_DIV 4
#define GRID_MIN_N 128 /* below about this n the plain loop is faster */
#define GRID_SPAN (2 * GRID_DIV + 4) /* at least the columns, or rows, a query visits */

typedef struct {
    double x0, y0, s, inv_s, pad, errb, reach;
    int64_t nx, ny;
    int64_t *head;  /* nc: first point of cell c, or -1 */
    int64_t *count; /* nc: points in cell c */
    int64_t *cell;  /* n: the cell of point j */
    int64_t *next, *prev; /* n: list links, -1 at either end */
    dd *sx, *sy;    /* nc: exact coordinate sums */
    /* 5 nc for alpha = 2, else NULL: per cell, the exact sums over its
     * points of y0^2, y0 y1, y1^2, |y|^2 y0 and |y|^2 y1, with y the
     * point's offset from the cell's centre */
    dd *mom;
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

/* The centre of the cell in column cx and row cy. */
static inline void cell_centre(const grid_t *g, int64_t cx, int64_t cy, double *ctr)
{
    ctr[0] = g->x0 + ((double)cx + 0.5) * g->s;
    ctr[1] = g->y0 + ((double)cy + 0.5) * g->s;
}

/* Add sign (+1 or -1) times the moments of the point (p0, p1) to those of
 * cell c, when the grid keeps moments. */
static void moments_add(grid_t *g, int64_t c, double p0, double p1, double sign)
{
    if (!g->mom)
        return;
    double ctr[2];
    cell_centre(g, c % g->nx, c / g->nx, ctr);
    const double y0 = p0 - ctr[0], y1 = p1 - ctr[1], r = y0 * y0 + y1 * y1;
    dd *m = g->mom + 5 * c;
    dd_add(&m[0], sign * (y0 * y0));
    dd_add(&m[1], sign * (y0 * y1));
    dd_add(&m[2], sign * (y1 * y1));
    dd_add(&m[3], sign * (r * y0));
    dd_add(&m[4], sign * (r * y1));
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
}

static void grid_free(grid_t *g)
{
    free(g->head);
    free(g->sx);
}

/* The one rule for when a query runs on the grid: build it over the n
 * points of pts (n x d), with moments for alpha = 2, when d = 2 and
 * n >= GRID_MIN_N; returns 0, for the plain loop, otherwise or when it
 * would need too many cells (a spread far beyond h) or memory runs out.
 * Queries may come from points up to qscale from the origin in each
 * coordinate, beyond the box's own. */
static int grid_build(grid_t *g, const double *pts, int64_t n, int64_t d, double h2, double qscale,
                      int64_t alpha)
{
    if (d != 2 || n < GRID_MIN_N)
        return 0;
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
    const double box = fmax(fmax(fabs(xmin), fabs(xmax)), fmax(fabs(ymin), fabs(ymax)));
    const double scale = fmax(box, qscale);
    g->pad = 1e-12 * (scale + g->s);
    g->errb = 1e-12 * (4.0 * scale * scale + h2);
    /* a point the identity puts inside the ball lies within this reach;
     * far from the origin the margins widen it past what a query may visit */
    g->reach = sqrt(h2 + 2.0 * g->errb) + g->pad;
    if (!(2.0 * g->reach * g->inv_s + 3.0 <= GRID_SPAN))
        return 0;
    const int64_t nc = g->nx * g->ny, sums = alpha == 2 ? 7 : 2;
    g->head = malloc((size_t)(2 * nc + 3 * n) * sizeof(int64_t));
    g->sx = malloc((size_t)(sums * nc) * sizeof(dd));
    if (!g->head || !g->sx) {
        grid_free(g);
        return 0;
    }
    g->count = g->head + nc;
    g->cell = g->count + nc;
    g->next = g->cell + n;
    g->prev = g->next + n;
    g->sy = g->sx + nc;
    g->mom = alpha == 2 ? g->sy + nc : NULL;
    for (int64_t c = 0; c < nc; c++) {
        g->head[c] = -1;
        g->count[c] = 0;
    }
    for (int64_t k = 0; k < sums * nc; k++)
        g->sx[k] = (dd){0.0, 0.0};
    for (int64_t j = 0; j < n; j++) {
        const int64_t c = cell_of(g, pts[2 * j], pts[2 * j + 1]);
        g->cell[j] = c;
        g->count[c]++;
        dd_add(&g->sx[c], pts[2 * j]);
        dd_add(&g->sy[c], pts[2 * j + 1]);
        moments_add(g, c, pts[2 * j], pts[2 * j + 1], 1.0);
    }
    for (int64_t j = n - 1; j >= 0; j--) /* front pushes, so index order */
        cell_push(g, j, g->cell[j]);
    return 1;
}

/* The cells a query around at = (x0, x1) visits, cx0..cx1 by cy0..cy1,
 * and the squared farthest and nearest distances from at to each of
 * their columns (far_x, near_x) and rows (far_y, near_y), widened by the
 * pad margin and, on the rows and in opposite directions, by the
 * identity's rounding margin errb: a cell with far_x + far_y < h^2 lies
 * inside the ball, and one with near_x + near_y >= h^2 outside it, for
 * the identity test and for 1 - sq / h^2 > 0 alike. */
typedef struct {
    double at[2];
    int64_t cx0, cx1, cy0, cy1;
    double far_x[GRID_SPAN], near_x[GRID_SPAN], far_y[GRID_SPAN], near_y[GRID_SPAN];
} window_t;

/* One axis of a window: the bounds from v to the cells c0..c1 of the axis
 * that starts at origin, the far ones raised and the near ones lowered by
 * slack. */
static inline __attribute__((always_inline)) void
window_axis(const grid_t *g, double v, double origin, int64_t c0, int64_t c1, double slack, double *far,
            double *near)
{
    for (int64_t c = c0; c <= c1; c++) {
        const double lo = origin + (double)c * g->s - g->pad;
        const double hi = origin + (double)(c + 1) * g->s + g->pad;
        const double f = dmax(fabs(v - lo), fabs(v - hi));
        const double nr = v < lo ? lo - v : (v > hi ? v - hi : 0.0);
        far[c - c0] = f * f + slack;
        near[c - c0] = nr * nr - slack;
    }
}

static inline __attribute__((always_inline)) void
grid_window(const grid_t *g, double x0, double x1, window_t *w)
{
    const double reach = g->reach;
    w->at[0] = x0;
    w->at[1] = x1;
    w->cx0 = cell_coord(x0 - reach, g->x0, g->inv_s, g->nx);
    w->cx1 = cell_coord(x0 + reach, g->x0, g->inv_s, g->nx);
    w->cy0 = cell_coord(x1 - reach, g->y0, g->inv_s, g->ny);
    w->cy1 = cell_coord(x1 + reach, g->y0, g->inv_s, g->ny);
    window_axis(g, x0, g->x0, w->cx0, w->cx1, 0.0, w->far_x, w->near_x);
    window_axis(g, x1, g->y0, w->cy0, w->cy1, g->errb, w->far_y, w->near_y);
}

/* Whether cell (cx, cy) passes w's near test, or with near = 0 its far
 * test; a cell outside w passes neither. */
static inline int window_has(const window_t *w, int64_t cx, int64_t cy, double h2, int near)
{
    if (cx < w->cx0 || cx > w->cx1 || cy < w->cy0 || cy > w->cy1)
        return 0;
    const int64_t kx = cx - w->cx0, ky = cy - w->cy0;
    return near ? w->near_x[kx] + w->near_y[ky] < h2 : w->far_x[kx] + w->far_y[ky] < h2;
}

/* Cell c's first moment about its centre ctr, sum_j (x_j - ctr), from its
 * exact coordinate sums. */
static inline void cell_offsets(const grid_t *g, int64_t c, const double *ctr, double *s1)
{
    const double count = (double)g->count[c];
    s1[0] = (g->sx[c].hi - count * ctr[0]) + g->sx[c].lo;
    s1[1] = (g->sy[c].hi - count * ctr[1]) + g->sy[c].lo;
}

/* Cell c's share of the alpha = 2 move around x, when it lies inside the
 * ball: with y a point's offset from the cell's centre ctr and
 * u = ctr - x, its weights 2 (1 - |y + u|^2 / h^2) summed from its count
 * and moments.  Returns their total and adds sum_j w_j x_j to *ax, *ay. */
static inline double cell_weigh(const grid_t *g, int64_t c, const double *ctr, const double *x, double inv_h2,
                                double *ax, double *ay)
{
    double s1[2];
    cell_offsets(g, c, ctr, s1);
    const dd *m = g->mom + 5 * c;
    const double count = (double)g->count[c], u0 = ctr[0] - x[0], u1 = ctr[1] - x[1];
    const double uu = u0 * u0 + u1 * u1, su = s1[0] * u0 + s1[1] * u1;
    const double total = 2.0 * (count - ((m[0].hi + m[2].hi) + 2.0 * su + count * uu) * inv_h2);
    /* sum_j w_j y_j = 2 (s1 - (sum_j |y_j|^2 y_j + 2 M u + |u|^2 s1) / h^2), M = sum_j y_j y_j^T */
    const double mu0 = m[0].hi * u0 + m[1].hi * u1, mu1 = m[1].hi * u0 + m[2].hi * u1;
    *ax += total * ctr[0] + 2.0 * (s1[0] - (m[3].hi + 2.0 * mu0 + uu * s1[0]) * inv_h2);
    *ay += total * ctr[1] + 2.0 * (s1[1] - (m[4].hi + 2.0 * mu1 + uu * s1[1]) * inv_h2);
    return total;
}

/* The G-weighted sum of the grid's points (pts, squared norms sqn) in the
 * window w around x = w->at, whose squared norm is sqx: sum receives
 * sum_j w_j x_j, and the weight total is returned.  A cell inside the
 * ball adds its count and coordinate sums for alpha = 1 and its share
 * from its moments (cell_weigh) for alpha = 2; the points of the other
 * cells that the near test keeps are weighed one by one, and for
 * alpha >= 3 those of the inside cells too.  For alpha = 1 the total
 * counts the points that the identity test sq < h^2 puts in the ball.
 * Always inlined, so a constant alpha keeps one branch of each test. */
static inline __attribute__((always_inline)) double
grid_query(const grid_t *g, const double *pts, const double *sqn, const window_t *w, double sqx, double h2,
           double inv_h2, int64_t alpha, double *sum)
{
    const double x0 = w->at[0], x1 = w->at[1];
    double ax = 0.0, ay = 0.0, total = 0.0;
    int64_t inside = 0; /* alpha = 1: counted as an integer, faster than a double total */
    for (int64_t cy = w->cy0; cy <= w->cy1; cy++) {
        const double far_y = w->far_y[cy - w->cy0], near_y = w->near_y[cy - w->cy0];
        for (int64_t cx = w->cx0; cx <= w->cx1; cx++) {
            const int64_t c = cy * g->nx + cx;
            if (g->count[c] == 0)
                continue;
            if (alpha == 1 && w->far_x[cx - w->cx0] + far_y < h2) {
                ax += g->sx[c].hi;
                ay += g->sy[c].hi;
                inside += g->count[c];
            } else if (alpha == 2 && w->far_x[cx - w->cx0] + far_y < h2) {
                double ctr[2];
                cell_centre(g, cx, cy, ctr);
                total += cell_weigh(g, c, ctr, w->at, inv_h2, &ax, &ay);
            } else if (w->near_x[cx - w->cx0] + near_y < h2) {
                for (int64_t j = g->head[c]; j >= 0; j = g->next[j]) {
                    const double p0 = pts[2 * j], p1 = pts[2 * j + 1];
                    const double sq = ((p0 * x0 + p1 * x1) * -2.0 + sqn[j]) + sqx;
                    /* no branch: whether a point of a boundary cell is
                     * inside the ball is unpredictable */
                    if (alpha == 1) {
                        const int64_t in = sq < h2;
                        ax += (double)in * p0;
                        ay += (double)in * p1;
                        inside += in;
                    } else {
                        const double wt = weight(sq, h2, inv_h2, alpha);
                        ax += wt * p0;
                        ay += wt * p1;
                        total += wt;
                    }
                }
            }
        }
    }
    sum[0] = ax;
    sum[1] = ay;
    return alpha == 1 ? (double)inside : total;
}

/* Take point i, at (x0, x1), out of its cell's count and sums; it stays
 * in the cell's list until grid_put. */
static void grid_take(grid_t *g, int64_t i, double x0, double x1)
{
    const int64_t c = g->cell[i];
    dd_add(&g->sx[c], -x0);
    dd_add(&g->sy[c], -x1);
    moments_add(g, c, x0, x1, -1.0);
    g->count[c]--;
}

/* Put point i, taken out by grid_take, back at (n0, n1): into its new
 * cell's count and sums, and into its list if the cell changed. */
static void grid_put(grid_t *g, int64_t i, double n0, double n1)
{
    const int64_t to = cell_of(g, n0, n1);
    dd_add(&g->sx[to], n0);
    dd_add(&g->sy[to], n1);
    moments_add(g, to, n0, n1, 1.0);
    g->count[to]++;
    if (to != g->cell[i]) {
        cell_unlink(g, i);
        cell_push(g, i, to);
    }
}

/* The increment terms (increment_term) of the points of cell c other than
 * i, for a step from x (squared norm sqx) to new. */
static double cell_terms(const grid_t *g, const double *pts, const double *sqn, int64_t c, int64_t i,
                         const double *x, double sqx, const double *new, const double *dx, double cross,
                         double inv_h2, int64_t alpha)
{
    double sum = 0.0;
    for (int64_t j = g->head[c]; j >= 0; j = g->next[j])
        if (j != i) {
            const double *p = pts + 2 * j;
            sum += increment_term(p, 2, sqn[j], sq_identity(p, 2, x, sqn[j], sqx), new, sqn[i], dx, cross,
                                  inv_h2, alpha);
        }
    return sum;
}

/* Cell c's share of the increment, alpha = 1 or 2, when it lies inside
 * both balls, from its count and moments about its centre ctr.  With y a
 * point's offset from ctr, u = ctr - x and v = ctr - new, a point's base
 * difference b_new - b_old is (2 y . dx + e) / h^2 with e = dx . (u + v),
 * free of cancellation as in increment_term; at alpha = 2 it is
 * multiplied by b_new + b_old = k - (2 |y|^2 + 2 y . a) / h^2, with
 * a = u + v and k = 2 - (|u|^2 + |v|^2) / h^2. */
static inline __attribute__((always_inline)) double
cell_increment(const grid_t *g, int64_t c, const double *ctr, const double *x, const double *new,
               const double *dx, double inv_h2, int64_t alpha)
{
    double s1[2];
    cell_offsets(g, c, ctr, s1);
    const double u0 = ctr[0] - x[0], u1 = ctr[1] - x[1], v0 = ctr[0] - new[0], v1 = ctr[1] - new[1];
    const double a0 = u0 + v0, a1 = u1 + v1, e = dx[0] * a0 + dx[1] * a1;
    const double lin = 2.0 * (s1[0] * dx[0] + s1[1] * dx[1]) + (double)g->count[c] * e;
    if (alpha == 1)
        return lin * inv_h2;
    const dd *m = g->mom + 5 * c;
    const double k = 2.0 - ((u0 * u0 + u1 * u1) + (v0 * v0 + v1 * v1)) * inv_h2;
    const double ma0 = m[0].hi * a0 + m[1].hi * a1, ma1 = m[1].hi * a0 + m[2].hi * a1;
    const double quad = 4.0 * (dx[0] * (m[3].hi + ma0) + dx[1] * (m[4].hi + ma1)) +
                        2.0 * e * ((m[0].hi + m[2].hi) + (s1[0] * a0 + s1[1] * a1));
    return (k * lin - quad * inv_h2) * inv_h2;
}

/* The objective increment sum_{j != i} k(t_new) - k(t_old) of point i's
 * step from x (squared norm sqx; old is the window around it) to its new
 * position, with i taken out of the grid's counts and sums.  One walk
 * over the cells of both windows: a cell inside both balls adds its share
 * from its moments for alpha <= 2, and every other cell that either near
 * test keeps adds its points' terms one by one.  A cell that no near test
 * keeps adds +0.0 terms only. */
static double grid_increment(const grid_t *g, const double *pts, const double *sqn, int64_t i,
                             const double *x, double sqx, const window_t *old, double h2, double inv_h2,
                             int64_t alpha)
{
    const double *new = pts + 2 * i;
    double dx[2];
    const double cross = step_cross(2, x, new, dx);
    window_t around;
    grid_window(g, new[0], new[1], &around);
    double sum = 0.0;
    const int64_t cy0 = old->cy0 < around.cy0 ? old->cy0 : around.cy0;
    const int64_t cx0 = old->cx0 < around.cx0 ? old->cx0 : around.cx0;
    for (int64_t cy = cy0; cy <= old->cy1 || cy <= around.cy1; cy++)
        for (int64_t cx = cx0; cx <= old->cx1 || cx <= around.cx1; cx++) {
            const int64_t c = cy * g->nx + cx;
            if (g->count[c] == 0 || !(window_has(old, cx, cy, h2, 1) || window_has(&around, cx, cy, h2, 1)))
                continue;
            if (alpha <= 2 && window_has(old, cx, cy, h2, 0) && window_has(&around, cx, cy, h2, 0)) {
                double ctr[2];
                cell_centre(g, cx, cy, ctr);
                sum += cell_increment(g, c, ctr, x, new, dx, inv_h2, alpha);
            } else
                sum += cell_terms(g, pts, sqn, c, i, x, sqx, new, dx, cross, inv_h2, alpha);
        }
    return sum;
}

/* SMS's gridded step: move point i onto grid_query's mean around it, and
 * give move_traced's gradient norm and, from grid_increment, its
 * increment when asked; then carry the point over in its cells' sums and
 * lists.  The move never reads the traced outputs, so tracing leaves the
 * run's bits alone. */
static inline __attribute__((always_inline)) double
move_cells(grid_t *g, double *pts, double *sqn, int64_t i, double h2, double inv_h2, int64_t alpha,
           double *delta, double *grad)
{
    const double x[2] = {pts[2 * i], pts[2 * i + 1]}, sqx = sqn[i];
    window_t around;
    double acc[2];
    grid_window(g, x[0], x[1], &around);
    const double total = grid_query(g, pts, sqn, &around, sqx, h2, inv_h2, alpha, acc);
    const double shift = place_mean(pts, sqn, 2, i, x, acc, total);
    if (grad)
        *grad = (2.0 * inv_h2 * total) * shift;
    grid_take(g, i, x[0], x[1]);
    if (delta)
        *delta = grid_increment(g, pts, sqn, i, x, sqx, &around, h2, inv_h2, alpha);
    grid_put(g, i, pts[2 * i], pts[2 * i + 1]);
    return shift;
}

/* The SMS stop rule after a step of point i with the given shift: a
 * shift < tol stamps i with the current epoch, and one >= tol starts a
 * new epoch.  Returns 1 once all n points carry the current epoch.  The
 * stop state is stamp (n epochs), the epoch and the count of points
 * stamped in it; a block runner keeps the last two in locals and carries
 * all three over between blocks in stamp and state = {epoch, covered,
 * converged}.  Always inlined, so the locals stay in registers in the
 * step loops. */
static inline __attribute__((always_inline)) int
stop_rule(double shift, double tol, int64_t i, int64_t n, int64_t *stamp, int64_t *epoch,
          int64_t *covered)
{
    if (shift < tol) {
        if (stamp[i] != *epoch) {
            stamp[i] = *epoch;
            return ++*covered == n;
        }
    } else {
        ++*epoch;
        *covered = 0;
    }
    return 0;
}

/* Run the steps idx[0..m) on pts (n x d, row-major) with cached squared
 * norms sqn, writing each step's shift to shifts, under stop_rule.
 * Returns the number of steps taken; state[2] is set to 1 when the stop
 * rule fired on the last of them.  When deltas (grads) is not NULL, step s
 * also writes its objective increment to deltas[s] (its partial-gradient
 * norm to grads[s]).  Where grid_build accepts the state, every step runs
 * move_cells, with alpha = 1 compiled in for the uniform weight;
 * otherwise every step runs the plain loop move_traced.  scratch holds
 * 2 * d + n doubles. */
EXPORT
int64_t sms_block(double *pts, double *sqn, int64_t n, int64_t d,
                  const int64_t *idx, int64_t m, double h2, int64_t alpha,
                  double tol, int64_t *stamp, int64_t *state, double *shifts,
                  double *deltas, double *grads, double *scratch)
{
    const double inv_h2 = 1.0 / h2;
    int64_t epoch = state[0], covered = state[1];
    int64_t s = 0;
    grid_t g;
    const int gridded = grid_build(&g, pts, n, d, h2, 0.0, alpha);
    state[2] = 0;
    while (s < m) {
        const int64_t i = idx[s];
        double *delta = deltas ? deltas + s : NULL, *grad = grads ? grads + s : NULL;
        double shift;
        if (gridded)
            shift = alpha == 1 ? move_cells(&g, pts, sqn, i, h2, inv_h2, 1, delta, grad)
                               : move_cells(&g, pts, sqn, i, h2, inv_h2, alpha, delta, grad);
        else
            shift = deltas || grads ? move_traced(pts, sqn, n, d, i, h2, inv_h2, alpha, scratch, delta, grad)
                                    : move_traced(pts, sqn, n, d, i, h2, inv_h2, alpha, scratch, NULL, NULL);
        shifts[s++] = shift;
        if (stop_rule(shift, tol, i, n, stamp, &epoch, &covered)) {
            state[2] = 1;
            break;
        }
    }
    if (gridded)
        grid_free(&g);
    state[0] = epoch;
    state[1] = covered;
    return s;
}

/* Run the score-matrix SMS steps idx[0..m) on pts (n x d, row-major),
 * under stop_rule as in sms_block: a step of point i moves it onto the
 * mean of the rows nb[i * k + r], r = 0..k-1, summed in that order and
 * divided by k, and writes its shift to shifts.  The caller guarantees
 * that every entry of nb lies in [0, n) and that row i of nb holds no i.
 * scratch holds d doubles. */
EXPORT
int64_t knn_block(double *pts, int64_t n, int64_t d, const int64_t *nb, int64_t k,
                  const int64_t *idx, int64_t m, double tol, int64_t *stamp, int64_t *state,
                  double *shifts, double *scratch)
{
    int64_t epoch = state[0], covered = state[1];
    int64_t s = 0;
    state[2] = 0;
    while (s < m) {
        const int64_t i = idx[s];
        const int64_t *row_nb = nb + i * k;
        memcpy(scratch, pts + row_nb[0] * d, (size_t)d * sizeof(double));
        for (int64_t r = 1; r < k; r++) {
            const double *p = pts + row_nb[r] * d;
            for (int64_t c = 0; c < d; c++)
                scratch[c] += p[c];
        }
        double *row = pts + i * d;
        double shift2 = 0.0;
        for (int64_t c = 0; c < d; c++) {
            const double v = scratch[c] / (double)k;
            const double dx = v - row[c];
            shift2 += dx * dx;
            row[c] = v;
        }
        const double shift = sqrt(shift2);
        shifts[s++] = shift;
        if (stop_rule(shift, tol, i, n, stamp, &epoch, &covered)) {
            state[2] = 1;
            break;
        }
    }
    state[0] = epoch;
    state[1] = covered;
    return s;
}

/* Divide row, a weighted sum with weight total, into its mean; a row
 * with no weight stays at its query x.  Returns its squared shift. */
static inline __attribute__((always_inline)) double
row_mean(double *row, const double *x, double total, int64_t d)
{
    double shift2 = 0.0;
    for (int64_t k = 0; k < d; k++) {
        row[k] = total > 0.0 ? row[k] / total : x[k];
        const double dx = row[k] - x[k];
        shift2 += dx * dx;
    }
    return shift2;
}

/* The batch map: move each of the m query rows q (m x d, squared norms
 * sqq) onto the G-weighted mean of the n sample rows s (squared norms
 * sqs), into out (m x d), which may alias neither (row_mean).  Where
 * grid_build accepts the sample, the rows query its grid, with alpha = 1
 * compiled in for the uniform weight; otherwise each row is
 * weighted_sum's plain loop over the sample. */
EXPORT
void shift_rows(const double *q, const double *sqq, int64_t m, const double *s,
                const double *sqs, int64_t n, int64_t d, double h2, int64_t alpha, double *out)
{
    double qscale = 0.0;
    for (int64_t k = 0; k < m * d; k++)
        qscale = dmax(qscale, fabs(q[k]));
    grid_t g;
    const int gridded = grid_build(&g, s, n, d, h2, qscale, alpha);
    const double inv_h2 = 1.0 / h2;
    for (int64_t r = 0; r < m; r++) {
        const double *x = q + r * d;
        double *row = out + r * d;
        double total;
        if (gridded) {
            window_t w;
            grid_window(&g, x[0], x[1], &w);
            total = alpha == 1 ? grid_query(&g, s, sqs, &w, sqq[r], h2, inv_h2, 1, row)
                               : grid_query(&g, s, sqs, &w, sqq[r], h2, inv_h2, alpha, row);
        } else
            total = weighted_sum(s, sqs, n, d, x, sqq[r], h2, inv_h2, alpha, row, NULL);
        row_mean(row, x, total, d);
    }
    if (gridded)
        grid_free(&g);
}

/* Row r's pairs (r, j), j >= r, in j order, one dot product each: w x_j
 * goes to row r (acc) and v x_r to row j, w and v grouped as weighted_sum
 * groups its queries r and j, so each keeps its bits.  A zero weight adds
 * +-0.0 untested: a sum from +0.0 is never -0.0 under round-to-nearest.
 * Inlined, so a constant d = 2 keeps acc in registers. */
static inline __attribute__((always_inline)) void
pair_sums(const double *pts, const double *sqn, int64_t n, int64_t d, int64_t r, double h2,
          double inv_h2, int64_t alpha, double *acc, double *next, double *wsum)
{
    const double *x = pts + r * d;
    double tot = wsum[r];
    for (int64_t j = r; j < n; j++) {
        const double *p = pts + j * d;
        double dot = 0.0;
        for (int64_t k = 0; k < d; k++)
            dot += p[k] * x[k];
        const double m = dot * -2.0, sqr = (m + sqn[j]) + sqn[r], sqj = (m + sqn[r]) + sqn[j];
        const double w = weight(sqr, h2, inv_h2, alpha);
        for (int64_t k = 0; k < d; k++)
            acc[k] += w * p[k];
        tot += w;
        if (j == r)
            continue;
        const double v = weight(sqj, h2, inv_h2, alpha);
        for (int64_t k = 0; k < d; k++)
            next[j * d + k] += v * x[k];
        wsum[j] += v;
    }
    wsum[r] = tot;
}

/* Up to max_sweeps blurring mean-shift sweeps on pts (n x d, row-major),
 * in place.  A sweep moves every row onto the G-weighted mean of the
 * state (a row with no weight stays) and writes its largest row shift to
 * shifts[t]; the sweeps end after the first below tol.  Returns the
 * number of sweeps run.  scratch holds n * d + 2 * n doubles: the next
 * state, the weight totals and the squared norms.  A sweep evaluates each
 * unordered pair once, n (n + 1) / 2 pairs, and row j gets the terms of
 * rows r < j in ascending r before its own, so every row sums
 * weighted_sum's terms in index order, to its bits.  There is no grid, so
 * a sweep's work grows as n^2, as in Cheng's BMS (see algorithms.bms_run). */
EXPORT
int64_t bms_sweeps(double *pts, int64_t n, int64_t d, double h2, int64_t alpha, double tol,
                   int64_t max_sweeps, double *shifts, double *scratch)
{
    const double inv_h2 = 1.0 / h2;
    double *next = scratch, *wsum = scratch + n * d, *sqn = wsum + n;
    for (int64_t t = 0; t < max_sweeps; t++) {
        for (int64_t j = 0; j < n; j++) {
            const double *p = pts + j * d;
            double sq = 0.0;
            for (int64_t k = 0; k < d; k++)
                sq += p[k] * p[k];
            sqn[j] = sq;
        }
        memset(next, 0, (size_t)(n * d + n) * sizeof(double)); /* next and wsum */
        double top = 0.0;
        for (int64_t r = 0; r < n; r++) {
            const double *x = pts + r * d;
            double *row = next + r * d;
            if (d == 2 && alpha == 1) {
                double acc[2] = {row[0], row[1]};
                pair_sums(pts, sqn, n, 2, r, h2, inv_h2, 1, acc, next, wsum);
                row[0] = acc[0], row[1] = acc[1];
            } else
                pair_sums(pts, sqn, n, d, r, h2, inv_h2, alpha, row, next, wsum);
            top = dmax(top, sqrt(row_mean(row, x, wsum[r], d)));
        }
        memcpy(pts, next, (size_t)(n * d) * sizeof(double));
        shifts[t] = top;
        if (top < tol)
            return t + 1;
    }
    return max_sweeps;
}
