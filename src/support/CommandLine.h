//===- support/CommandLine.h - Flag matching and usage errors --*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag grammar every CTA binary reads its command line with: a value
/// flag is `--name=V` or `--name V`, a bare flag is `--name` alone, and a
/// malformed command line (or CTA_* setting) ends the process through one
/// error path that names the flag and exits 1.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SUPPORT_COMMANDLINE_H
#define CTA_SUPPORT_COMMANDLINE_H

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace cta {

/// Matches Args[I] against the flag \p Name. A value flag (\p Value
/// non-null) matches `Name=V`, storing V, and `Name V`, storing the next
/// argument and advancing \p I past it; with no next argument it reports
/// "Name needs a value". A bare flag (\p Value null) matches `Name` only,
/// so `Name=V` is some other (unknown) flag. Returns false, leaving \p I
/// alone, for any other argument, including one \p Name is only a prefix
/// of (`--jobsx` is not `--jobs`).
bool matchFlag(std::span<const std::string> Args, std::size_t &I,
               std::string_view Name, std::string *Value = nullptr);

/// The one error path for a malformed command line or CTA_* setting:
/// prints "cta: error: <Msg>" to stderr, then the usage text given to
/// setUsageText(), and exits 1. It never aborts: a bad flag is the user's
/// error, not a broken invariant (those go to reportFatalError).
[[noreturn]] void reportUsageError(const std::string &Msg);

/// Sets the text reportUsageError() prints after its message; until it is
/// called, the message is printed alone.
void setUsageText(const char *Text);

} // namespace cta

#endif // CTA_SUPPORT_COMMANDLINE_H
