// Text form shared by the double-valued carriers' ToString.
#ifndef DATALOGO_SEMIRING_FORMAT_H_
#define DATALOGO_SEMIRING_FORMAT_H_

#include <charconv>
#include <string>

namespace datalogo {

/// `a` as `std::ostream << a` prints it with default flags, i.e.
/// printf("%.6g", a): std::to_chars with chars_format::general and
/// precision 6 is specified as exactly that conversion.
inline std::string FormatDouble(double a) {
  char buf[32];  // "%.6g" needs at most 13 bytes ("-1.23457e-308")
  return std::string(
      buf, std::to_chars(buf, buf + sizeof(buf), a,
                         std::chars_format::general, 6)
               .ptr);
}

}  // namespace datalogo

#endif  // DATALOGO_SEMIRING_FORMAT_H_
