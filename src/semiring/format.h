// Text form shared by the double-valued carriers' ToString.
#ifndef DATALOGO_SEMIRING_FORMAT_H_
#define DATALOGO_SEMIRING_FORMAT_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>

namespace datalogo {

/// `a` as `std::ostream << a` prints it with default flags, i.e.
/// printf("%.6g", a): std::to_chars with chars_format::general and
/// precision 6 is specified as exactly that conversion. A whole number
/// below 1e6 in magnitude has at most six digits, so "%.6g" prints it
/// as a plain integer; integer to_chars does that several times faster
/// (the shape of every shortest-path table). -0.0 keeps the general
/// path, which prints "-0".
inline std::string FormatDouble(double a) {
  char buf[32];  // "%.6g" needs at most 13 bytes ("-1.23457e-308")
  if (a > -1e6 && a < 1e6) {  // false for NaN, so the cast below is defined
    const int32_t i = static_cast<int32_t>(a);
    if (i == a && (i != 0 || !std::signbit(a))) {
      return std::string(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
    }
  }
  return std::string(
      buf, std::to_chars(buf, buf + sizeof(buf), a,
                         std::chars_format::general, 6)
               .ptr);
}

}  // namespace datalogo

#endif  // DATALOGO_SEMIRING_FORMAT_H_
