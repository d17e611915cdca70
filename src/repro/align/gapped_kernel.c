/* Native banded x-drop gapped extension (step 3), one lane at a time.
 *
 * Exact twin of the NumPy kernel in gapped.py (batch_gapped_extend): the
 * same int32 arithmetic and sentinels, the same clamped gathers, the same
 * strict tie-breaks, the same row-start floor for move acceptance and the
 * same end-of-row pruning, so every lane ends with bit-identical best-cell
 * state and the same lane-row count.  Where the NumPy kernel relaxes left
 * moves to a fixpoint over the whole band, this one takes them in a single
 * left-to-right pass, which reaches the same fixpoint (each cell depends
 * only on the final value of the cell to its left).
 *
 * The band row is updated in place: cell k reads the previous row at k
 * (diagonal) and k+1 (up), and the current row at k-1 (left), and columns
 * are visited in increasing k, so no second buffer is needed.
 *
 * Build: cc -O2 -shared -fPIC (see gapped_native.py).
 */
#include <stdint.h>
#include <stdlib.h>

#define NEG (-(1 << 30))
#define BIGPEN (1 << 20)
#define INVALID 4

enum { MOVE_NONE = 0, MOVE_DIAG = 1, MOVE_UP = 2, MOVE_LEFT = 3 };

static inline int64_t clamp(int64_t x, int64_t n)
{
    return x < 0 ? 0 : (x >= n ? n - 1 : x);
}

static inline int code_at(const uint8_t *seq, int64_t n, int64_t x)
{
    uint8_t c = seq[clamp(x, n)];
    return c > INVALID ? INVALID : c;
}

/* Extends n lanes; lane t starts at (p1[t], p2[t]) in direction dirs[t].
 * Writes the best cell of every lane (score, row, band column and its
 * gap-columns / gap-openings / min-column / max-column annotations into
 * best_ann[4t..4t+3]) and returns the number of lane-rows executed, or
 * -1 when the band buffers cannot be allocated. */
int64_t gapped_extend_lanes(
    const uint8_t *seq1, int64_t n1, const uint8_t *seq2, int64_t n2,
    const int64_t *p1, const int64_t *p2, const int64_t *dirs, int64_t n,
    int32_t match, int32_t mismatch, int32_t gap, int32_t xdrop,
    int32_t R, int64_t max_rows,
    int32_t *best_score, int64_t *best_i, int64_t *best_k, int64_t *best_ann)
{
    const int32_t w = 2 * R + 1;
    int32_t subt[64];
    for (int a = 0; a < 8; a++)
        for (int b = 0; b < 8; b++)
            subt[(a << 3) | b] = (a < INVALID && b < INVALID)
                ? (a == b ? match : -mismatch) : -BIGPEN;

    int32_t *H = malloc(5 * (size_t)w * sizeof(int32_t));
    int8_t *lm = malloc((size_t)w);
    if (H == NULL || lm == NULL) {
        free(H);
        free(lm);
        return -1;
    }
    int32_t *gc = H + w, *go = H + 2 * w, *mink = H + 3 * w, *maxk = H + 4 * w;

    int64_t steps = 0;
    for (int64_t t = 0; t < n; t++) {
        for (int32_t k = 0; k < w; k++) {
            H[k] = NEG;
            gc[k] = go[k] = 0;
            mink[k] = maxk[k] = R;
            lm[k] = MOVE_NONE;
        }
        H[R] = 0;
        int32_t bs = 0;
        int64_t bi = -1, bk = R;
        int64_t *ann = best_ann + 4 * t;
        ann[0] = ann[1] = ann[2] = ann[3] = 0;
        const int64_t d = dirs[t];
        const int64_t b1 = d > 0 ? p1[t] : p1[t] - 1;
        const int64_t b2 = d > 0 ? p2[t] : p2[t] - 1;

        /* Live cells of the previous row lie in [lo, hi]; every other
         * cell is NEG.  A cell outside [lo - 1, hi] can only become live
         * through a left move, so the row is computed over [lo - 1, hi]
         * and continued rightwards while left moves stay above the floor.
         * Skipped cells would end the row at or below the floor (their
         * diagonal and up predecessors are NEG), be pruned to NEG, and
         * never win the row maximum of a lane that goes on, so skipping
         * them changes nothing. */
        int32_t lo = R, hi = R;
        for (int64_t i = 0; i < max_rows; i++) {
            steps++;
            int32_t floor = bs - xdrop;
            const int c1 = code_at(seq1, n1, b1 + d * i);
            const int32_t c1pen = c1 >= INVALID ? -BIGPEN : 0;
            /* Columns k < dead have consumed no seq2 yet (j < 0). */
            const int32_t dead = i < R ? (int32_t)(R - i) : 0;
            const int64_t j0 = b2 + d * (i - R);
            const int32_t first = lo > 0 ? lo - 1 : 0;
            int32_t last = first;
            for (int32_t k = first; k < w; k++) {
                const int c2 = code_at(seq2, n2, j0 + d * k);
                const int32_t c2pen = (c2 >= INVALID || k < dead) ? -BIGPEN : 0;
                const int32_t diag = H[k] + subt[(c1 << 3) | c2];
                const int32_t up = (k + 1 < w ? H[k + 1] - gap : NEG) + c1pen;
                int32_t v;
                if (up > diag && up > floor) {
                    v = up;
                    gc[k] = gc[k + 1] + 1;
                    go[k] = go[k + 1] + (lm[k + 1] != MOVE_UP);
                    mink[k] = mink[k + 1] < k ? mink[k + 1] : k;
                    maxk[k] = maxk[k + 1] > k ? maxk[k + 1] : k;
                    lm[k] = MOVE_UP;
                } else {
                    v = up > diag ? up : diag;
                    lm[k] = MOVE_DIAG;
                }
                const int32_t left = (k > 0 ? H[k - 1] - gap : NEG) + c2pen;
                const int take_left = left > v && left > floor;
                if (take_left) {
                    v = left;
                    gc[k] = gc[k - 1] + 1;
                    go[k] = go[k - 1] + (lm[k - 1] != MOVE_LEFT);
                    mink[k] = mink[k - 1] < k ? mink[k - 1] : k;
                    maxk[k] = maxk[k - 1] > k ? maxk[k - 1] : k;
                    lm[k] = MOVE_LEFT;
                } else if (k > hi) {
                    break; /* past the previous row and no left move: dead */
                }
                H[k] = v;
                last = k;
            }
            for (int32_t k = first; k < dead; k++)
                H[k] = NEG;

            int32_t row_best = NEG, arg = 0;
            for (int32_t k = first; k <= last; k++)
                if (H[k] > row_best) {
                    row_best = H[k];
                    arg = k;
                }
            if (row_best > bs) {
                bs = row_best;
                bi = i;
                bk = arg;
                ann[0] = gc[arg];
                ann[1] = go[arg];
                ann[2] = mink[arg];
                ann[3] = maxk[arg];
                floor = bs - xdrop;
            }
            if (row_best <= floor)
                break;
            lo = w;
            hi = -1;
            for (int32_t k = first; k <= last; k++) {
                if (H[k] <= floor) {
                    H[k] = NEG;
                } else {
                    if (k < lo)
                        lo = k;
                    hi = k;
                }
            }
        }
        best_score[t] = bs;
        best_i[t] = bi;
        best_k[t] = bk;
    }
    free(H);
    free(lm);
    return steps;
}
