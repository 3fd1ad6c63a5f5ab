// Text for the package's writers: rows of typed columns between literal
// texts, floats spelled exactly as Python's repr spells them.
// std::to_chars gives the shortest round-trip digits (Ryu); put_double
// lays them out by repr's rules.  put_rows writes into the caller's
// buffer of `cap` bytes and returns the bytes written, or -1 (and
// nothing past `cap`) when they do not fit.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace {

// column kinds; _native names them in the same order
enum Kind : int64_t { FLOAT, JSON_FLOAT, INT, INT_OR_NULL };

// the widest value any kind spells: "-1.2345678901234567e-308"
constexpr int64_t WIDEST = 24;

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

char *put(char *p, const char *text) {
    size_t len = std::strlen(text);
    std::memcpy(p, text, len);
    return p + len;
}

// the value at `at` spelled by its kind: non-finite floats as repr
// ("nan", "inf") or json.dumps ("NaN", "Infinity") spells them
char *put_value(char *p, int64_t kind, const char *at) {
    if (kind == INT || kind == INT_OR_NULL) {
        int64_t v;
        std::memcpy(&v, at, sizeof v);
        return kind == INT_OR_NULL && v < 0 ? put(p, "null") : std::to_chars(p, p + 20, v).ptr;
    }
    double v;
    std::memcpy(&v, at, sizeof v);
    if (std::isfinite(v)) return put_double(p, v);
    bool json = kind == JSON_FLOAT;
    if (std::isnan(v)) return put(p, json ? "NaN" : "nan");
    if (v < 0) *p++ = '-';
    return put(p, json ? "Infinity" : "inf");
}

}  // namespace

// rows first..first+n-1 of ncols columns, each laid out as text 0,
// value 0, text 1, value 1, ..., text ncols.  Text j is the bytes
// text[text_end[j - 1], text_end[j]) (from 0 for j = 0); value j of row r
// is the float64 or int64 at cols[j] + r * strides[j] bytes, spelled by
// kinds[j].
extern "C" int64_t put_rows(int64_t first, int64_t n, int64_t ncols, const char *const *cols,
                            const int64_t *strides, const int64_t *kinds, const char *text,
                            const int64_t *text_end, char *buf, int64_t cap) {
    int64_t len = 0;
    for (int64_t r = first; r < first + n; ++r) {
        for (int64_t j = 0; j <= ncols; ++j) {
            int64_t lo = j ? text_end[j - 1] : 0, size = text_end[j] - lo;
            if (size > cap - len) return -1;
            std::memcpy(buf + len, text + lo, size);
            len += size;
            if (j == ncols) break;
            const char *at = cols[j] + r * strides[j];
            if (cap - len >= WIDEST) {
                len = put_value(buf + len, kinds[j], at) - buf;
                continue;
            }
            char tok[WIDEST];
            int64_t got = put_value(tok, kinds[j], at) - tok;
            if (got > cap - len) return -1;
            std::memcpy(buf + len, tok, got);
            len += got;
        }
    }
    return len;
}
