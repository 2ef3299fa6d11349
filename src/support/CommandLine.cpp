//===- support/CommandLine.cpp - Flag matching and usage errors -----------===//

#include "support/CommandLine.h"

#include <cstdio>
#include <cstdlib>

using namespace cta;

namespace {
const char *UsageText = nullptr;
} // namespace

bool cta::matchFlag(std::span<const std::string> Args, std::size_t &I,
                    std::string_view Name, std::string *Value) {
  const std::string_view Arg = Args[I];
  if (Arg == Name) {
    if (Value != nullptr) {
      if (I + 1 == Args.size())
        reportUsageError(std::string(Name) + " needs a value");
      *Value = Args[++I];
    }
    return true;
  }
  if (Value == nullptr || Arg.size() <= Name.size() ||
      !Arg.starts_with(Name) || Arg[Name.size()] != '=')
    return false;
  *Value = Arg.substr(Name.size() + 1);
  return true;
}

void cta::reportUsageError(const std::string &Msg) {
  std::fprintf(stderr, "cta: error: %s\n%s", Msg.c_str(),
               UsageText ? UsageText : "");
  std::fflush(stdout);
  // _Exit, not exit: a CTA_* variable can be read lazily on a worker
  // thread, and running static destructors under live threads is unsafe.
  std::_Exit(1);
}

void cta::setUsageText(const char *Text) { UsageText = Text; }
