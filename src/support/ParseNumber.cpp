//===- support/ParseNumber.cpp - Strict numeric parsing --------------------===//

#include "support/ParseNumber.h"

#include "support/CommandLine.h"

#include <charconv>
#include <cmath>

using namespace cta;

std::optional<std::uint64_t> cta::parseUint64(const std::string &Text,
                                              std::uint64_t Max) {
  if (Text.empty())
    return std::nullopt;
  std::uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return std::nullopt;
    unsigned Digit = static_cast<unsigned>(C - '0');
    if (Value > (UINT64_MAX - Digit) / 10)
      return std::nullopt; // would overflow uint64
    Value = Value * 10 + Digit;
  }
  if (Value > Max)
    return std::nullopt;
  return Value;
}

std::uint64_t cta::parseUint64OrDie(const char *What, const std::string &Text,
                                    std::uint64_t Max) {
  if (std::optional<std::uint64_t> V = parseUint64(Text, Max))
    return *V;
  reportUsageError(std::string(What) + ": invalid numeric value '" + Text +
                   "' (expected a decimal integer <= " + std::to_string(Max) +
                   ")");
}

std::optional<double> cta::parseFiniteDouble(const std::string &Text) {
  // from_chars takes no leading whitespace or '+', and no hex in the
  // general format; it reports out-of-range values instead of returning
  // HUGE_VAL, but does read "inf" and "nan".
  double Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End || !std::isfinite(Value))
    return std::nullopt;
  return Value;
}

double cta::parseFiniteDoubleOrDie(const char *What, const std::string &Text) {
  if (std::optional<double> V = parseFiniteDouble(Text))
    return *V;
  reportUsageError(std::string(What) + ": invalid numeric value '" + Text +
                   "' (expected a finite decimal number)");
}
