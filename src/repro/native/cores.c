/* Sequential cores: the per-branch and per-block loops of the batch engine
 * and the cycle simulator.
 *
 * The batch engine's cores (repro/batch/engine.py) take each branch's PC
 * and outcome and form, branch by branch, every input the scalar predictor
 * forms from them: the global-history register (carried from call to call
 * in its caller's array), local-history rows, each table's index under its
 * rule (the fold, skew, gshare and gshare.fast hashes, the loop tag, the
 * perceptron's row) and the perceptron's inputs.  Each then steps state
 * that every branch reads after earlier branches wrote it:
 *
 *   - counter tables that every branch reads and then trains (bimodal,
 *     gshare, gshare.fast with its update delay, local PHTs), tournament's
 *     chooser;
 *   - coupled counter tables (Bi-Mode, e-gskew, 2Bc-gskew), where one
 *     table decides whether another trains;
 *   - loop entries and the multicomponent selection counters;
 *   - perceptron training, where a branch's output depends on every
 *     earlier update of its weight row.
 *
 * The cycle simulator (repro/uarch/) lays out blocks and addresses in
 * NumPy; its cores are the LRU caches, the BTB and the return-address
 * stack, and the timing loop, a chain of double-precision operations whose
 * result depends on their order.
 *
 * Each core applies exactly the rule of the scalar model it mirrors, in
 * the same order, on state arrays the Python side owns.  repro/native
 * builds this file with -ffp-contract=off so that no multiply-add is
 * fused, and never with -ffast-math, so every double operation rounds as
 * Python's float does.  The caller checks every dtype, length, shape,
 * history width and index rule; the cores check every index they read
 * from the caller's arrays or form, and every fill count, and return -1
 * before using one that is out of range (otherwise 0, or the count a core
 * documents).  No core touches a Python object.
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

/* -- bits: repro/common/bits.py, one to one (widths 0 to 63) -------------- */

static uint64_t mask(int64_t width)
{
    return ((uint64_t)1 << width) - 1;
}

/* The XOR of the value's out_width-bit slices: bits.fold's loop, run over
 * every slice of the in_width bits (a zero slice changes nothing), so that
 * its trip count depends on the widths only. */
static uint64_t fold(uint64_t value, int64_t in_width, int64_t out_width)
{
    if (out_width == 0)
        return 0;
    value &= mask(in_width);
    uint64_t folded = 0;
    for (int64_t shift = 0; shift < in_width; shift += out_width)
        folded ^= (value >> shift) & mask(out_width);
    return folded;
}

/* The low `width` bits reversed: all 64 bits reversed by swapping ever
 * larger halves, then the top `width` of them. */
static uint64_t bit_reverse(uint64_t value, int64_t width)
{
    static const uint64_t halves[] = {
        0x5555555555555555u, 0x3333333333333333u, 0x0F0F0F0F0F0F0F0Fu,
        0x00FF00FF00FF00FFu, 0x0000FFFF0000FFFFu, 0x00000000FFFFFFFFu,
    };
    if (width == 0)
        return 0;
    for (int k = 0; k < 6; k++) {
        int shift = 1 << k;
        value = ((value >> shift) & halves[k]) | ((value & halves[k]) << shift);
    }
    return value >> (64 - width);
}

static uint64_t rotate_left(uint64_t value, int64_t amount, int64_t width)
{
    if (amount >= width) /* at skew widths of 1 to 3 bits only: spare the division */
        amount %= width;
    value &= mask(width);
    return ((value << amount) | (value >> (width - amount))) & mask(width);
}

/* The PC's word address: Python's pc >> 2, an arithmetic shift. */
static uint64_t word(int64_t pc)
{
    return (uint64_t)(pc >> 2);
}

static uint64_t hash_pc(int64_t pc, int64_t width)
{
    return fold(word(pc), 32, width);
}

/* -- index rules ------------------------------------------------------------ */

/* gskew.skew_index: bank 0, 1 or 2 of the skewing family. */
static uint64_t skew_index(
    int64_t pc, uint64_t history, int64_t history_length, int64_t index_bits, int64_t bank)
{
    uint64_t pc_bits = hash_pc(pc, index_bits);
    uint64_t hist_bits = fold(history, history_length, index_bits);
    uint64_t mixed;
    if (bank == 0)
        mixed = pc_bits ^ hist_bits;
    else if (bank == 1)
        mixed = rotate_left(pc_bits, index_bits / 3 + 1, index_bits) ^
                bit_reverse(hist_bits, index_bits);
    else
        mixed = bit_reverse(pc_bits, index_bits) ^
                rotate_left(hist_bits, 2 * index_bits / 3 + 1, index_bits);
    return mixed & mask(index_bits);
}

/* gshare.fast's index: a line address from stale history, a select from
 * the folded low PC bits and the newest history. */
static uint64_t fast_index(
    int64_t pc, uint64_t history, int64_t index_bits, int64_t buffer_bits, int64_t staleness,
    int64_t select_bits)
{
    uint64_t high = (history >> staleness) & mask(index_bits - buffer_bits);
    uint64_t pc_bits = fold(word(pc) & mask(select_bits), select_bits, buffer_bits);
    uint64_t low = (pc_bits ^ history) & mask(buffer_bits);
    return (high << buffer_bits) | low;
}

/* Python's int.bit_length (gcc and clang provide the count of leading
 * zeros). */
static int64_t bit_length(uint64_t value)
{
    return value ? 64 - __builtin_clzll(value) : 0;
}

/* LoopPredictor's tag: the word address shifted by the bit length of the
 * entry index's value, then its low 8 bits. */
static uint64_t loop_tag(int64_t pc, int64_t index_bits)
{
    return (uint64_t)((pc >> 2) >> bit_length(word(pc) & mask(index_bits))) & 0xFF;
}

/* How a table's index is formed from a branch's PC and the history row it
 * reads (repro.native.rule builds and checks each kind): RULE_FIELDS
 * int64s, the kind, the index bits, then up to three parameters. */
enum { RULE_PC, RULE_GSHARE, RULE_FAST, RULE_FOLD, RULE_SKEW, RULE_ROW, RULE_LOOP_TAG };
enum { RULE_FIELDS = 5 };

static uint64_t table_index(const int64_t *rule, int64_t pc, uint64_t history)
{
    int64_t bits = rule[1];
    switch (rule[0]) {
    case RULE_PC:
        return word(pc) & mask(bits);
    case RULE_GSHARE:
        return (hash_pc(pc, bits) ^ history) & mask(bits);
    case RULE_FAST: /* buffer bits, staleness, select bits */
        return fast_index(pc, history, bits, rule[2], rule[3], rule[4]);
    case RULE_FOLD: /* history length */
        return fold(history, rule[2], bits);
    case RULE_SKEW: /* history length, bank */
        return skew_index(pc, history, rule[2], bits, rule[3]);
    case RULE_ROW: /* rows: the perceptron's hash_pc(pc, 32) % rows */
        return hash_pc(pc, bits) % (uint64_t)rule[2];
    default: /* RULE_LOOP_TAG */
        return loop_tag(pc, bits);
    }
}

/* -- history rows ------------------------------------------------------------ */

/* History rows of `length` bits, newest outcome in bit 0 (repro.native.
 * History): the branch at pc reads row (pc >> 2) & (count - 1), the
 * history before it, then shifts its outcome in.  A global-history
 * register is one row; a LocalHistoryTable is its rows.  The count is a
 * power of two, so every row is in range. */
static int64_t history_row(int64_t pc, int64_t count)
{
    return (int64_t)(word(pc) & (uint64_t)(count - 1));
}

static void shift_in(int64_t *row, int taken, int64_t length)
{
    *row = (int64_t)((((uint64_t)*row << 1) | (uint64_t)taken) & mask(length));
}

/* Every index one rule forms over a stream, reading and shifting history
 * rows as the cores do: the cores' index function, exposed so that it can
 * be checked against the scalar predictors. */
int64_t indices(
    int64_t n, const int64_t *pcs, const uint8_t *takens, const int64_t *rule, int64_t *rows,
    int64_t row_count, int64_t length, int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t r = history_row(pcs[i], row_count);
        out[i] = (int64_t)table_index(rule, pcs[i], (uint64_t)rows[r]);
        shift_in(&rows[r], takens[i] != 0, length);
    }
    return 0;
}

/* -- counter tables ---------------------------------------------------------- */

/* A counter table that every branch reads at its rule's index over history
 * rows, and then trains, each write becoming visible `delay` branches after
 * its own read (DelayedUpdateQueue): once branch i has pushed its write,
 * the oldest write beyond `delay` applies.  The queue holds the writes
 * still pending, oldest first: the first `pending` of its `delay` slots on
 * entry, the last min(delay, pending + n) writes on return.  `cells` keeps
 * each branch's index for its delayed write.  Returns that count. */
int64_t counter_replay(
    int64_t n, const int64_t *pcs, const uint8_t *takens, const int64_t *rule, int64_t *rows,
    int64_t row_count, int64_t length, int16_t *table, int64_t size, int64_t threshold,
    int64_t top, int64_t delay, int64_t *queue_cells, uint8_t *queue_takens, int64_t pending,
    int64_t *cells, uint8_t *votes)
{
    if (out_of_range(pending, delay + 1))
        return -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t r = history_row(pcs[i], row_count);
        int64_t c = (int64_t)table_index(rule, pcs[i], (uint64_t)rows[r]);
        if (out_of_range(c, size))
            return -1;
        cells[i] = c;
        votes[i] = (uint8_t)(table[c] >= threshold);
        shift_in(&rows[r], takens[i] != 0, length);
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
    int64_t n, const int64_t *pcs, const uint8_t *takens, const int64_t *rule, int64_t *history,
    int64_t length, const uint8_t *global_votes, const uint8_t *local_votes, int16_t *table,
    int64_t size, int64_t threshold, int64_t top, uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t c = (int64_t)table_index(rule, pcs[i], (uint64_t)*history);
        if (out_of_range(c, size))
            return -1;
        int taken = takens[i] != 0;
        int global = global_votes[i] != 0, local = local_votes[i] != 0;
        predictions[i] = (uint8_t)(table[c] >= threshold ? global : local);
        if (global != local)
            table[c] = step(table[c], global == taken, top);
        shift_in(history, taken, length);
    }
    return 0;
}

/* -- coupled counter tables --------------------------------------------- */

/* Bi-Mode: the choice counter picks the direction table that predicts and
 * trains; the choice counter skips its update when the picked table was
 * right but disagreed with it.  Rules: direction, choice. */
int64_t bimode_replay(
    int64_t n, const int64_t *pcs, const uint8_t *takens, const int64_t *rules,
    int64_t *history, int64_t length, int16_t *taken_table, int16_t *not_taken_table,
    int64_t direction_size, int16_t *choice_table, int64_t choice_size,
    int64_t direction_threshold, int64_t direction_max,
    int64_t choice_threshold, int64_t choice_max, uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t h = (uint64_t)*history;
        int64_t d = (int64_t)table_index(rules, pcs[i], h);
        int64_t c = (int64_t)table_index(rules + RULE_FIELDS, pcs[i], h);
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
        shift_in(history, taken, length);
    }
    return 0;
}

/* e-gskew: majority vote of three banks; on a correct prediction an
 * outvoted bank is left alone.  Rules: bim, g0, g1. */
int64_t egskew_replay(
    int64_t n, const int64_t *pcs, const uint8_t *takens, const int64_t *rules,
    int64_t *history, int64_t length, int16_t *bim, int64_t bim_size, int16_t *g0,
    int16_t *g1, int64_t bank_size, int64_t threshold, int64_t top, uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t h = (uint64_t)*history;
        int64_t b = (int64_t)table_index(rules, pcs[i], h);
        int64_t x = (int64_t)table_index(rules + RULE_FIELDS, pcs[i], h);
        int64_t y = (int64_t)table_index(rules + 2 * RULE_FIELDS, pcs[i], h);
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
        shift_in(history, taken, length);
    }
    return 0;
}

/* 2Bc-gskew: the meta counter picks the bimodal bank or the majority
 * vote, and trains toward whichever was right when they disagree.  Rules:
 * bim, g0, g1, meta. */
int64_t twobc_gskew_replay(
    int64_t n, const int64_t *pcs, const uint8_t *takens, const int64_t *rules,
    int64_t *history, int64_t length, int16_t *bim, int64_t bim_size, int16_t *g0,
    int16_t *g1, int16_t *meta, int64_t bank_size, int64_t threshold, int64_t top,
    uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t h = (uint64_t)*history;
        int64_t b = (int64_t)table_index(rules, pcs[i], h);
        int64_t x = (int64_t)table_index(rules + RULE_FIELDS, pcs[i], h);
        int64_t y = (int64_t)table_index(rules + 2 * RULE_FIELDS, pcs[i], h);
        int64_t m = (int64_t)table_index(rules + 3 * RULE_FIELDS, pcs[i], h);
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
        shift_in(history, taken, length);
    }
    return 0;
}

/* -- loop entries and selection counters -------------------------------- */

/* Loop entries, one row of (tag, trip, current, confidence, direction)
 * each: the LoopPredictor rules, branch by branch.  Rules: entry, tag. */
int64_t loop_replay(
    int64_t n, const int64_t *pcs, const uint8_t *takens, const int64_t *rules,
    int64_t *entries, int64_t entry_count, int64_t threshold, int64_t max_trip,
    uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t index = (int64_t)table_index(rules, pcs[i], 0);
        int64_t tag = (int64_t)table_index(rules + RULE_FIELDS, pcs[i], 0);
        if (out_of_range(index, entry_count))
            return -1;
        int64_t *e = entries + 5 * index;
        int64_t taken = takens[i] != 0;
        if (e[0] != tag) {
            /* Cold: allocate with taken as the body direction. */
            predictions[i] = 1;
            e[0] = tag;
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
 * over its row's packed counters and the components' correctness mask. */
int64_t selection_replay(
    int64_t n, const int64_t *pcs, const int64_t *rule, const int64_t *correct, int64_t *state,
    int64_t state_size, const uint32_t *transitions, int64_t transition_size,
    int64_t components, uint8_t *selected_correct)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t row = (int64_t)table_index(rule, pcs[i], 0);
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

/* The dot product of `count` weights with the inputs of `bits`: +1 where
 * a bit is set, -1 where it is clear. */
static int32_t dot(const int32_t *w, uint64_t bits, int64_t count)
{
    int32_t sum = 0;
    for (int64_t j = 0; j < count; j++)
        sum += (bits >> j) & 1 ? w[j] : -w[j];
    return sum;
}

static int32_t clamp(int32_t value, int64_t low, int64_t high)
{
    return value < low ? (int32_t)low : value > high ? (int32_t)high : value;
}

/* Adds sign times each input of `bits` to its weight, clamped. */
static void train(int32_t *w, uint64_t bits, int64_t count, int32_t sign, int64_t low, int64_t high)
{
    for (int64_t j = 0; j < count; j++)
        w[j] = clamp(w[j] + ((bits >> j) & 1 ? sign : -sign), low, high);
}

/* Perceptron training, branch by branch: the row its rule picks holds a
 * bias weight, one weight per global history bit and one per local
 * history bit (a row of `width` = 1 + length + local_length), its inputs
 * the bias +1 and each history bit as ±1.  The branch predicts taken when
 * the output (the dot product) is >= 0, and trains, each weight moving
 * toward the outcome sign times its input, when that sign times the
 * output is at most the threshold: a wrong prediction, or a right one
 * below it. */
int64_t perceptron_train(
    int64_t n, const int64_t *pcs, const uint8_t *takens, const int64_t *rule, int64_t *history,
    int64_t length, int64_t *local_rows, int64_t local_count, int64_t local_length,
    int32_t *weights, int64_t row_count, int64_t width, int64_t threshold, int64_t weight_min,
    int64_t weight_max, uint8_t *predictions)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t row = (int64_t)table_index(rule, pcs[i], 0);
        int64_t r = history_row(pcs[i], local_count);
        if (out_of_range(row, row_count))
            return -1;
        uint64_t global = (uint64_t)*history, local = (uint64_t)local_rows[r];
        int32_t *w = weights + row * width;
        int32_t output = w[0] + dot(w + 1, global, length) +
                         dot(w + 1 + length, local, local_length);
        int taken = takens[i] != 0;
        int32_t sign = taken ? 1 : -1;
        predictions[i] = (uint8_t)(output >= 0);
        if (sign * output <= threshold) {
            w[0] = clamp(w[0] + sign, weight_min, weight_max);
            train(w + 1, global, length, sign, weight_min, weight_max);
            train(w + 1 + length, local, local_length, sign, weight_min, weight_max);
        }
        shift_in(history, taken, length);
        shift_in(&local_rows[r], taken, local_length);
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
