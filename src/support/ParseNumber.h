//===- support/ParseNumber.h - Strict numeric parsing ----------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict decimal parsing for command-line flags and environment
/// variables (CTA_JOBS, CTA_TRACE_CACHE_BYTES, ...). strtoul-style
/// parsing silently accepts garbage ("8x" -> 8, "abc" -> 0) and wraps on
/// overflow, and strtod-style parsing accepts "inf" and "nan"; a
/// misconfigured run is worse than a refused one, so these helpers reject
/// anything that is not a plain in-range decimal number. The *OrDie
/// variants report a rejected value through reportUsageError
/// (support/CommandLine.h): a message naming the offending setting, then
/// exit status 1.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SUPPORT_PARSENUMBER_H
#define CTA_SUPPORT_PARSENUMBER_H

#include <cstdint>
#include <optional>
#include <string>

namespace cta {

/// Parses \p Text as a plain decimal std::uint64_t. Returns nullopt for
/// empty input, any non-digit character (signs, whitespace, suffixes, hex)
/// or a value above \p Max. Leading zeros are accepted.
std::optional<std::uint64_t>
parseUint64(const std::string &Text, std::uint64_t Max = UINT64_MAX);

/// parseUint64 that reports a rejected value via reportUsageError; \p What
/// names the flag or environment variable in the message ("--jobs",
/// "CTA_TRACE_CACHE_BYTES").
std::uint64_t parseUint64OrDie(const char *What, const std::string &Text,
                               std::uint64_t Max = UINT64_MAX);

/// Parses \p Text as a finite decimal double ("0.5", "-2", "3.125e-2").
/// Returns nullopt for empty input, leading whitespace or '+', trailing
/// characters, hex, "inf", "nan" and values out of double's range.
std::optional<double> parseFiniteDouble(const std::string &Text);

/// parseFiniteDouble that reports a rejected value via reportUsageError,
/// naming \p What.
double parseFiniteDoubleOrDie(const char *What, const std::string &Text);

} // namespace cta

#endif // CTA_SUPPORT_PARSENUMBER_H
