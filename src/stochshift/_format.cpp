// Text for the package's writers: whole trace.jsonl lines and CSV rows,
// floats spelled exactly as Python's repr spells them.  std::to_chars
// gives the shortest round-trip digits (Ryu); put_double lays them out by
// repr's rules.  Each function writes into the caller's buffer of `cap`
// bytes and returns the bytes written, -1 (and nothing past `cap`) when
// they do not fit, or -2 at the first value that is not finite, whose
// spelling differs between the writers and is left to the caller.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace {

// repr(v): positional for -4 <= exponent < 16, with ".0" on integral
// values; otherwise d[.ddd]e+XX with a two-digit exponent at least
char *put_double(char *p, double v) {
    char s[32];
    const char *end = std::to_chars(s, s + sizeof s, v, std::chars_format::scientific).ptr;
    const char *q = s;
    if (*q == '-') *p++ = *q++;
    char dig[17];
    int nd = 0;
    for (; *q != 'e'; ++q)
        if (*q != '.') dig[nd++] = *q;
    int exp = 0;
    for (const char *r = q + 2; r < end; ++r) exp = 10 * exp + (*r - '0');
    if (q[1] == '-') exp = -exp;
    if (exp < -4 || exp >= 16) {  // to_chars already writes repr's exponent
        *p++ = dig[0];
        if (nd > 1) *p++ = '.';
        std::memcpy(p, dig + 1, nd - 1);
        std::memcpy(p + nd - 1, q, end - q);
        return p + nd - 1 + (end - q);
    }
    if (exp < 0) {
        std::memcpy(p, "0.000", 1 - exp);
        std::memcpy(p + 1 - exp, dig, nd);
        return p + 1 - exp + nd;
    }
    for (int j = 0; j <= exp; ++j) *p++ = j < nd ? dig[j] : '0';
    *p++ = '.';
    if (nd <= exp + 1) {
        *p++ = '0';
        return p;
    }
    std::memcpy(p, dig + exp + 1, nd - exp - 1);
    return p + nd - exp - 1;
}

char *put_int(char *p, int64_t v) { return std::to_chars(p, p + 20, v).ptr; }

char *put(char *p, const char *text) {
    size_t len = std::strlen(text);
    std::memcpy(p, text, len);
    return p + len;
}

// appends [tok, p) to buf at *len unless it would pass cap
bool emit(char *buf, int64_t cap, int64_t *len, const char *tok, const char *p) {
    if (p - tok > cap - *len) return false;
    std::memcpy(buf + *len, tok, p - tok);
    *len += p - tok;
    return true;
}

}  // namespace

// n lines of json.dumps({"L"?, "grad_norm"?, "i", "k", "shift"}, sort_keys=True);
// L and grad may be null (column absent), a negative moved index is "null"
extern "C" int64_t trace_lines(int64_t n, const double *L, const double *grad, const int64_t *moved,
                               const int64_t *count, const double *shift, char *buf, int64_t cap) {
    int64_t len = 0;
    char line[192];
    for (int64_t r = 0; r < n; ++r) {
        if (!std::isfinite(shift[r]) || (L && !std::isfinite(L[r])) || (grad && !std::isfinite(grad[r])))
            return -2;
        char *p = put(line, "{");
        if (L) p = put(put_double(put(p, "\"L\": "), L[r]), ", ");
        if (grad) p = put(put_double(put(p, "\"grad_norm\": "), grad[r]), ", ");
        p = put(p, "\"i\": ");
        p = moved[r] < 0 ? put(p, "null") : put_int(p, moved[r]);
        p = put_int(put(p, ", \"k\": "), count[r]);
        p = put(put_double(put(p, ", \"shift\": "), shift[r]), "}\n");
        if (!emit(buf, cap, &len, line, p)) return -1;
    }
    return len;
}

// n CSV rows of the (n, d) row-major x, each followed by labels[r] when
// labels is not null: fields joined by ',', rows ended by '\n'
extern "C" int64_t csv_rows(int64_t n, int64_t d, const double *x, const int64_t *labels, char *buf,
                            int64_t cap) {
    int64_t len = 0;
    char tok[32];
    for (int64_t r = 0; r < n; ++r) {
        for (int64_t j = 0; j < d; ++j) {
            double v = x[r * d + j];
            if (!std::isfinite(v)) return -2;
            char *p = tok;
            if (j) *p++ = ',';
            if (!emit(buf, cap, &len, tok, put_double(p, v))) return -1;
        }
        char *p = tok;
        if (labels) {
            if (d) *p++ = ',';
            p = put_int(p, labels[r]);
        }
        *p++ = '\n';
        if (!emit(buf, cap, &len, tok, p)) return -1;
    }
    return len;
}
