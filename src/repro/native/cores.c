/* Sequential cores: the per-branch and per-block loops of the batch engine
 * and the cycle simulator.
 *
 * The batch engine (repro/batch/engine.py) and the cycle simulator
 * (repro/uarch/) compute the index hashes, the global history, input rows,
 * block and address layouts in NumPy.  What is left is a state machine
 * that must step through its events in order, because each step reads
 * what the previous one wrote:
 *
 *   - counter tables that every branch reads and then trains (bimodal,
 *     gshare, gshare.fast with its update delay, local PHTs), tournament's
 *     chooser and local-history rows;
 *   - coupled counter tables (Bi-Mode, e-gskew, 2Bc-gskew), where one
 *     table decides whether another trains;
 *   - loop entries and the multicomponent selection counters;
 *   - perceptron training, where a branch's margin depends on every
 *     earlier update of its weight row;
 *   - the LRU caches, the BTB and the return-address stack;
 *   - the timing loop, a chain of double-precision operations whose
 *     result depends on their order.
 *
 * Each core applies exactly the rule of the scalar model it mirrors, in
 * the same order, on state arrays the Python side owns.  repro/native
 * builds this file with -ffp-contract=off so that no multiply-add is
 * fused, and never with -ffast-math, so every double operation rounds as
 * Python's float does.  The caller checks every dtype, length and shape;
 * the cores check every index they read from the caller's arrays, and
 * every fill count, and return -1 before using one that is out of range
 * (otherwise 0, or the count a core documents).  No core touches a
 * Python object.
 */

#include <math.h>
#include <stdint.h>

/* A saturating counter in [0, top] stepped toward `taken`. */
static int16_t step(int16_t value, int taken, int64_t top)
{
    if (taken)
        return value < top ? value + 1 : value;
    return value > 0 ? value - 1 : value;
}

static int out_of_range(int64_t index, int64_t size)
{
    return (uint64_t)index >= (uint64_t)size;
}

/* -- counter tables and local histories ---------------------------------- */

/* A counter table that every branch reads and then trains, each write
 * becoming visible `delay` branches after its own read (DelayedUpdateQueue):
 * once branch i has pushed its write, the oldest write beyond `delay`
 * applies.  The queue holds the writes still pending, oldest first: the
 * first `pending` of its `delay` slots on entry, the last
 * min(delay, pending + n) writes on return.  Returns that count. */
int64_t counter_replay(
    int64_t n, const int64_t *cells, const uint8_t *takens, int16_t *table, int64_t size,
    int64_t threshold, int64_t top, int64_t delay, int64_t *queue_cells,
    uint8_t *queue_takens, int64_t pending, uint8_t *votes)
{
    if (out_of_range(pending, delay + 1))
        return -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t c = cells[i];
        if (out_of_range(c, size))
            return -1;
        votes[i] = (uint8_t)(table[c] >= threshold);
        /* The write that applies now, counted over pending then stream. */
        int64_t w = pending + i - delay;
        if (w < 0)
            continue;
        int64_t at = w < pending ? queue_cells[w] : cells[w - pending];
        int taken = (w < pending ? queue_takens[w] : takens[w - pending]) != 0;
        if (out_of_range(at, size))
            return -1;
        table[at] = step(table[at], taken, top);
    }
    int64_t total = pending + n;
    int64_t kept = total < delay ? total : delay;
    for (int64_t q = 0, w = total - kept; q < kept; q++, w++) {
        queue_cells[q] = w < pending ? queue_cells[w] : cells[w - pending];
        queue_takens[q] = w < pending ? queue_takens[w] : takens[w - pending];
    }
    return kept;
}

/* Tournament's chooser: every branch reads its cell to pick the global or
 * the local vote, and the cell trains toward the global component only
 * where the two votes disagree. */
int64_t chooser_replay(
    int64_t n, const int64_t *cells, const uint8_t *global_votes, const uint8_t *local_votes,
    const uint8_t *takens, int16_t *table, int64_t size, int64_t threshold, int64_t top,
    uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t c = cells[i];
        if (out_of_range(c, size))
            return -1;
        int global = global_votes[i] != 0, local = local_votes[i] != 0;
        predictions[i] = (uint8_t)(table[c] >= threshold ? global : local);
        if (global != local)
            table[c] = step(table[c], global == (takens[i] != 0), top);
    }
    return 0;
}

/* Local-history rows of `length` bits (1 to 63): each branch reads its
 * row, the history before it, then shifts its outcome in. */
int64_t local_history_replay(
    int64_t n, const int64_t *rows, const uint8_t *takens, int64_t *table, int64_t row_count,
    int64_t length, int64_t *histories)
{
    uint64_t width = ((uint64_t)1 << length) - 1;
    for (int64_t i = 0; i < n; i++) {
        int64_t r = rows[i];
        if (out_of_range(r, row_count))
            return -1;
        uint64_t value = (uint64_t)table[r];
        histories[i] = (int64_t)value;
        table[r] = (int64_t)(((value << 1) | (takens[i] != 0)) & width);
    }
    return 0;
}

/* -- coupled counter tables --------------------------------------------- */

/* Bi-Mode: the choice counter picks the direction table that predicts and
 * trains; the choice counter skips its update when the picked table was
 * right but disagreed with it. */
int64_t bimode_replay(
    int64_t n, const int64_t *direction, const int64_t *choice, const uint8_t *takens,
    int16_t *taken_table, int16_t *not_taken_table, int64_t direction_size,
    int16_t *choice_table, int64_t choice_size,
    int64_t direction_threshold, int64_t direction_max,
    int64_t choice_threshold, int64_t choice_max, uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t d = direction[i], c = choice[i];
        if (out_of_range(d, direction_size) || out_of_range(c, choice_size))
            return -1;
        int taken = takens[i] != 0;
        int16_t choice_value = choice_table[c];
        int choose_taken = choice_value >= choice_threshold;
        int16_t *table = choose_taken ? taken_table : not_taken_table;
        int prediction = table[d] >= direction_threshold;
        predictions[i] = (uint8_t)prediction;
        if (!(prediction == taken && choose_taken != taken))
            choice_table[c] = step(choice_value, taken, choice_max);
        table[d] = step(table[d], taken, direction_max);
    }
    return 0;
}

/* e-gskew: majority vote of three banks; on a correct prediction an
 * outvoted bank is left alone. */
int64_t egskew_replay(
    int64_t n, const int64_t *b_idx, const int64_t *g0_idx, const int64_t *g1_idx,
    const uint8_t *takens, int16_t *bim, int64_t bim_size, int16_t *g0, int16_t *g1,
    int64_t bank_size, int64_t threshold, int64_t top, uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t b = b_idx[i], x = g0_idx[i], y = g1_idx[i];
        if (out_of_range(b, bim_size) || out_of_range(x, bank_size) || out_of_range(y, bank_size))
            return -1;
        int taken = takens[i] != 0;
        int16_t vb = bim[b], v0 = g0[x], v1 = g1[y];
        int pb = vb >= threshold, p0 = v0 >= threshold, p1 = v1 >= threshold;
        int prediction = pb + p0 + p1 >= 2;
        int correct = prediction == taken;
        predictions[i] = (uint8_t)prediction;
        if (!correct || pb == taken)
            bim[b] = step(vb, taken, top);
        if (!correct || p0 == taken)
            g0[x] = step(v0, taken, top);
        if (!correct || p1 == taken)
            g1[y] = step(v1, taken, top);
    }
    return 0;
}

/* 2Bc-gskew: the meta counter picks the bimodal bank or the majority
 * vote, and trains toward whichever was right when they disagree. */
int64_t twobc_gskew_replay(
    int64_t n, const int64_t *b_idx, const int64_t *g0_idx, const int64_t *g1_idx,
    const int64_t *m_idx, const uint8_t *takens, int16_t *bim, int64_t bim_size,
    int16_t *g0, int16_t *g1, int16_t *meta, int64_t bank_size,
    int64_t threshold, int64_t top, uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t b = b_idx[i], x = g0_idx[i], y = g1_idx[i], m = m_idx[i];
        if (out_of_range(b, bim_size) || out_of_range(x, bank_size) ||
            out_of_range(y, bank_size) || out_of_range(m, bank_size))
            return -1;
        int taken = takens[i] != 0;
        int16_t vb = bim[b], v0 = g0[x], v1 = g1[y], vm = meta[m];
        int pb = vb >= threshold, p0 = v0 >= threshold, p1 = v1 >= threshold;
        int majority = pb + p0 + p1 >= 2;
        int use_gskew = vm >= threshold;
        int prediction = use_gskew ? majority : pb;
        predictions[i] = (uint8_t)prediction;
        if (pb != majority)
            meta[m] = step(vm, majority == taken, top);
        if (prediction != taken || !use_gskew || pb == taken)
            bim[b] = step(vb, taken, top);
        if (use_gskew) {
            /* EV8 partial update: a correct gskew prediction strengthens
             * only the agreeing banks; a wrong one trains them all. */
            if (prediction != taken || p0 == taken)
                g0[x] = step(v0, taken, top);
            if (prediction != taken || p1 == taken)
                g1[y] = step(v1, taken, top);
        }
    }
    return 0;
}

/* -- loop entries and selection counters -------------------------------- */

/* Loop entries, one row of (tag, trip, current, confidence, direction)
 * each: the LoopPredictor rules, branch by branch. */
int64_t loop_replay(
    int64_t n, const int64_t *index, const int64_t *tags, const uint8_t *takens,
    int64_t *entries, int64_t entry_count, int64_t threshold, int64_t max_trip,
    uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        if (out_of_range(index[i], entry_count))
            return -1;
        int64_t *e = entries + 5 * index[i];
        int64_t taken = takens[i] != 0;
        if (e[0] != tags[i]) {
            /* Cold: allocate with taken as the body direction. */
            predictions[i] = 1;
            e[0] = tags[i];
            e[1] = 0;
            e[2] = 1;
            e[3] = 0;
            e[4] = taken;
            continue;
        }
        int64_t trip = e[1], current = e[2], confidence = e[3], direction = e[4];
        if (confidence >= threshold && trip && current + 1 >= trip)
            predictions[i] = (uint8_t)!direction; /* exit iteration */
        else
            predictions[i] = (uint8_t)(direction != 0);
        if (taken == direction) {
            e[2] = current < max_trip ? current + 1 : max_trip;
            continue;
        }
        if (current + 1 == trip) {
            e[3] = confidence < 3 ? confidence + 1 : 3;
        } else {
            e[1] = current + 1;
            e[3] = 0;
        }
        e[2] = 0;
    }
    return 0;
}

/* Evers selection counters: one lookup per branch in a transition table
 * over a row's packed counters and the components' correctness mask. */
int64_t selection_replay(
    int64_t n, const int64_t *rows, const int64_t *correct, int64_t *state,
    int64_t state_size, const uint32_t *transitions, int64_t transition_size,
    int64_t components, uint8_t *selected_correct)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t row = rows[i];
        if (out_of_range(row, state_size))
            return -1;
        int64_t at = (state[row] << components) | correct[i];
        if (out_of_range(at, transition_size))
            return -1;
        uint32_t code = transitions[at];
        state[row] = code >> 1;
        selected_correct[i] = (uint8_t)(code & 1);
    }
    return 0;
}

/* -- perceptron ------------------------------------------------------------ */

/* One pass over a chunk's input rows, which arrive multiplied by each
 * branch's outcome sign, so the dot product is the margin.  A branch
 * trains when its margin is at most the threshold: the row adds its
 * inputs, clamped to [weight_min, weight_max]. */
int64_t perceptron_train(
    int64_t n, int64_t width, const int64_t *rows, const int8_t *inputs, int32_t *weights,
    int64_t row_count, int64_t threshold, int64_t weight_min, int64_t weight_max,
    int32_t *margins)
{
    for (int64_t i = 0; i < n; i++) {
        if (out_of_range(rows[i], row_count))
            return -1;
        int32_t *w = weights + rows[i] * width;
        const int8_t *x = inputs + i * width;
        int32_t margin = 0;
        for (int64_t j = 0; j < width; j++)
            margin += w[j] * x[j];
        margins[i] = margin;
        if (margin <= threshold) {
            for (int64_t j = 0; j < width; j++) {
                int32_t v = w[j] + x[j];
                w[j] = v < weight_min ? (int32_t)weight_min : v > weight_max ? (int32_t)weight_max : v;
            }
        }
    }
    return 0;
}

/* -- caches, BTB and RAS ----------------------------------------------------- */

/* Move entry `at` of a row of `fill` entries to the most recent end. */
static void bump(int64_t *row, int64_t at, int64_t fill)
{
    int64_t value = row[at];
    for (int64_t k = at; k < fill - 1; k++)
        row[k] = row[k + 1];
    row[fill - 1] = value;
}

/* A true-LRU tag array, any associativity: per set `ways` tags, least
 * recently used first, of which the first fill[set] are resident.  Sets
 * are a power of two, so the set is the low line bits and the tag the
 * rest (Python's % and // for every int64).  Returns the misses. */
int64_t lru_replay(
    int64_t n, const int64_t *addresses, int64_t line_shift, int64_t set_mask,
    int64_t set_bits, int64_t ways, int64_t *tags, int64_t *fill, uint8_t *hits)
{
    int64_t misses = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = addresses[i] >> line_shift;
        int64_t set = line & set_mask, tag = line >> set_bits;
        int64_t *row = tags + set * ways;
        int64_t f = fill[set], j = f - 1;
        if (out_of_range(f, ways + 1))
            return -1;
        while (j >= 0 && row[j] != tag)
            j--;
        if (j >= 0) {
            bump(row, j, f);
            hits[i] = 1;
            continue;
        }
        misses++;
        hits[i] = 0;
        if (f == ways) {
            bump(row, 0, f);
            row[f - 1] = tag;
        } else {
            row[f] = tag;
            fill[set] = f + 1;
        }
    }
    return misses;
}

/* One BTB lookup-then-install of (pc, target): 1 when the lookup
 * supplied target, else 0, or -1 on a fill count out of range.  Counts a
 * miss when pc had no entry. */
static int btb_step(
    int64_t pc, int64_t target, int64_t set_mask, int64_t set_bits, int64_t ways,
    int64_t *tags, int64_t *targets, int64_t *fill, int64_t *misses)
{
    int64_t line = pc >> 2;
    int64_t set = line & set_mask, tag = line >> set_bits;
    int64_t *row_tags = tags + set * ways, *row_targets = targets + set * ways;
    int64_t f = fill[set], j = f - 1;
    if (out_of_range(f, ways + 1))
        return -1;
    while (j >= 0 && row_tags[j] != tag)
        j--;
    int correct = 0;
    if (j >= 0) {
        correct = row_targets[j] == target;
        bump(row_tags, j, f);
        bump(row_targets, j, f);
    } else {
        (*misses)++;
        if (f == ways) {
            bump(row_tags, 0, f);
            bump(row_targets, 0, f);
        } else {
            fill[set] = ++f;
        }
    }
    row_tags[f - 1] = tag;
    row_targets[f - 1] = target;
    return correct;
}

/* BranchTargetBuffer.lookup then install, for each branch in order.
 * Returns the misses. */
int64_t btb_replay(
    int64_t n, const int64_t *pcs, const int64_t *branch_targets, int64_t set_mask,
    int64_t set_bits, int64_t ways, int64_t *tags, int64_t *targets, int64_t *fill,
    uint8_t *correct)
{
    int64_t misses = 0;
    for (int64_t i = 0; i < n; i++) {
        int step = btb_step(
            pcs[i], branch_targets[i], set_mask, set_bits, ways, tags, targets, fill, &misses);
        if (step < 0)
            return -1;
        correct[i] = (uint8_t)step;
    }
    return misses;
}

/* Return-address stack of `depth` entries, oldest first; counts holds
 * (entries in use, overflows).  A push onto a full stack drops the
 * oldest entry; a pop is right when it returns the operation's address. */
int64_t ras_replay(
    int64_t n, const uint8_t *calls, const int64_t *addresses, int64_t *stack, int64_t depth,
    int64_t *counts, uint8_t *predicted)
{
    int64_t size = counts[0];
    if (size < 0 || size > depth)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        if (calls[i]) {
            if (size == depth) {
                bump(stack, 0, depth);
                stack[depth - 1] = addresses[i];
                counts[1]++;
            } else {
                stack[size++] = addresses[i];
            }
            predicted[i] = 1;
        } else if (size > 0) {
            predicted[i] = stack[--size] == addresses[i];
        } else {
            predicted[i] = 0;
        }
    }
    counts[0] = size;
    return 0;
}

/* -- the timing loop ------------------------------------------------------------ */

enum { MISPREDICT = 1, RAS_MISS = 2 };
enum { NO_PROBE = -2, ALWAYS_PROBE = -1 };

/* Indices of the timing loop's results in `out`. */
enum {
    OUT_CYCLES,
    OUT_MISPREDICT_STALL,
    OUT_RAS_STALL,
    OUT_WINDOW_STALL,
    OUT_SLOW_USED,
    OUT_GAP_WRONG,
    OUT_GAP_BTB_STALL,
    OUT_BTB_LOOKUPS,
    OUT_BTB_MISSES,
    OUT_FIELDS
};

/* The fetch and back-end cursors, block by block: every add, compare and
 * truncation in the order CycleSimulator's model defines them.  Per block:
 * its instructions, I-cache stall cycles, full-width fetch cycles, retire
 * cycles and data stall cycles, then its terminator's override bubble,
 * dual-path window, BTB-miss penalty and flush kind.
 *
 * probe[b] is NO_PROBE except under a gap-arbitrated pair (cascading),
 * where it is ALWAYS_PROBE for a call or jump and the branch's index in
 * the quick/slow/outcome streams for a conditional branch: the fetch gap
 * before it picks the component that answers, and a taken answer probes
 * the BTB (its state arrays are updated in place). */
int64_t time_blocks(
    int64_t blocks, const int64_t *instructions, const int64_t *icache,
    const int64_t *fetch_cycles, const double *retire, const double *data,
    const int64_t *bubbles, const int64_t *windows, const int64_t *penalties,
    const int64_t *flushes, const int64_t *probe, const int64_t *pcs, const int64_t *targets,
    int64_t branches, const uint8_t *quick, const uint8_t *slow, const uint8_t *outcomes,
    int64_t issue_width, int64_t blocks_per_cycle, int64_t front_depth, double rob_lead,
    int64_t btb_miss_penalty, int64_t gap_cycles, int64_t btb_set_mask, int64_t btb_set_bits,
    int64_t btb_ways, int64_t *btb_tags, int64_t *btb_targets, int64_t *btb_fill, int64_t *out)
{
    int64_t half_width = issue_width / 2 > 1 ? issue_width / 2 : 1;
    int grouped = blocks_per_cycle > 1;
    double next_fetch = 0.0;                  /* next free fetch cycle */
    double backend_end = (double)front_depth; /* in-order retirement cursor */
    double half_width_until = 0.0;            /* dual-path window */
    double group_end = -1.0;
    int64_t group_count = 0;
    double last_branch_fetch_end = 0.0;
    int64_t result[OUT_FIELDS] = {0};

    for (int64_t i = 0; i < blocks; i++) {
        int64_t n = instructions[i], cycles = fetch_cycles[i];
        /* ROB throttle: fetch cannot run arbitrarily ahead of retire. */
        if (next_fetch < backend_end - rob_lead)
            next_fetch = backend_end - rob_lead;
        double fetch_start = next_fetch;
        int64_t width = issue_width;
        if (fetch_start < half_width_until) {
            width = half_width;
            cycles = (n + half_width - 1) / half_width;
        }
        /* Multi-block fetch: a block joins the open group when slots
         * remain, it follows immediately, it hit the I-cache and it fits
         * one fetch block by itself. */
        double fetch_end;
        if (grouped && group_count < blocks_per_cycle && fetch_start == group_end &&
            icache[i] == 0 && n <= width) {
            fetch_end = group_end;
            group_count++;
        } else {
            fetch_end = fetch_start + (double)icache[i] + (double)cycles;
            group_end = fetch_end;
            group_count = 1;
        }
        next_fetch = fetch_end;
        double exec_ready = fetch_end + (double)front_depth;
        double prev_backend_end = backend_end;
        backend_end = (exec_ready > backend_end ? exec_ready : backend_end) + retire[i] + data[i];

        /* -- the block's terminator -- */
        int64_t penalty = penalties[i], flush = flushes[i];
        if (probe[i] != NO_PROBE) {
            int64_t branch = probe[i];
            int predicted = 1;
            if (branch >= 0) {
                if (branch >= branches)
                    return -1;
                int use_slow = (int64_t)(fetch_end - last_branch_fetch_end) >= gap_cycles;
                last_branch_fetch_end = fetch_end;
                if (use_slow) {
                    result[OUT_SLOW_USED]++;
                    predicted = slow[branch] != 0;
                } else {
                    predicted = quick[branch] != 0;
                }
                if (predicted != (outcomes[branch] != 0)) {
                    result[OUT_GAP_WRONG]++;
                    flush = MISPREDICT;
                }
            }
            if (predicted) {
                result[OUT_BTB_LOOKUPS]++;
                int hit = btb_step(pcs[i], targets[i], btb_set_mask, btb_set_bits, btb_ways,
                                   btb_tags, btb_targets, btb_fill, &result[OUT_BTB_MISSES]);
                if (hit < 0)
                    return -1;
                if (!hit) {
                    penalty = btb_miss_penalty;
                    result[OUT_GAP_BTB_STALL] += penalty;
                }
            }
        }
        if (bubbles[i])
            next_fetch += (double)bubbles[i];
        if (windows[i]) {
            /* A second branch inside an open window cannot fork again:
             * fetch waits for the window to close first. */
            if (fetch_end < half_width_until) {
                double stall = half_width_until - fetch_end;
                next_fetch += stall;
                result[OUT_WINDOW_STALL] += (int64_t)stall;
            }
            half_width_until = next_fetch + (double)windows[i];
        }
        if (penalty) /* redirect waits for decode to compute the target */
            next_fetch += (double)penalty;
        if (flush) {
            /* The branch must reach execute before redirecting fetch. */
            double resolve = (prev_backend_end > exec_ready ? prev_backend_end : exec_ready) + 1.0;
            if (resolve > next_fetch) {
                result[flush == MISPREDICT ? OUT_MISPREDICT_STALL : OUT_RAS_STALL] +=
                    (int64_t)(resolve - next_fetch);
                next_fetch = resolve;
            }
        }
    }
    result[OUT_CYCLES] = (int64_t)ceil(backend_end > next_fetch ? backend_end : next_fetch);
    for (int k = 0; k < OUT_FIELDS; k++)
        out[k] = result[k];
    return 0;
}
