// The scalar function registry shared by all language front ends. SQL++
// and AQL both compile to calls into this registry (paper §IV: SQL++ was
// implemented "fairly quickly as a peer of AQL, sharing the Algebricks
// query algebra"). Functions follow SQL++'s unknown-propagation rules:
// MISSING dominates NULL, and both propagate through most functions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>

#include "adm/value.h"
#include "common/result.h"

namespace asterix::algebricks {

/// A call's evaluated arguments. The compiled evaluator of a call with up
/// to four arguments fills them into a buffer on its own stack, so such a
/// call allocates nothing for them.
using Args = std::span<const adm::Value>;

using ScalarFn = std::function<Result<adm::Value>(Args)>;

/// How many arguments a function takes: min..max, inclusive. The compiler
/// rejects a call outside this range, so a function body may index its
/// arguments up to `min` without checking.
struct Arity {
  static constexpr size_t kVariadic = SIZE_MAX;

  explicit constexpr Arity(size_t n) : min(n), max(n) {}
  constexpr Arity(size_t lo, size_t hi) : min(lo), max(hi) {}
  static constexpr Arity AtLeast(size_t n) { return Arity(n, kVariadic); }

  bool Accepts(size_t n) const { return n >= min && n <= max; }
  /// "1", "2 to 3" or "at least 1", for error messages.
  std::string ToString() const;

  size_t min;
  size_t max;
};

/// Registry of scalar functions by name. One shared instance per process
/// (Instance()); tests may build private registries.
class FunctionRegistry {
 public:
  struct Entry {
    ScalarFn fn;
    Arity arity;
  };

  FunctionRegistry();

  /// Look up a function; NotFound if unregistered.
  Result<const Entry*> Lookup(const std::string& name) const;

  /// Register/override a function (extensions use this — paper §VII's
  /// "recognized extensions" add their own functions).
  void Register(const std::string& name, Arity arity, ScalarFn fn);

  bool Contains(const std::string& name) const {
    return fns_.count(name) > 0;
  }

  /// Process-wide registry with all built-ins.
  static const FunctionRegistry& Instance();

 private:
  std::map<std::string, Entry> fns_;
};

}  // namespace asterix::algebricks
