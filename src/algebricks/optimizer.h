// The rule-based, data-partition-aware rewriter of paper Fig. 5 ("Rewriter"
// + "Rule Sets"). Rules: constant folding, conjunct splitting, select
// push-down (below assigns/unnests, into join branches and join
// conditions), access-path selection (primary/secondary B+tree, R-tree,
// inverted keyword — §III item 8), dead-assign elimination, and scan
// pushdown (field projection for every dataset, comparison predicates for
// columnar ones). Each rule can be toggled off for the Fig. 5 ablation
// benchmark.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algebricks/functions.h"
#include "algebricks/logical.h"

namespace asterix::algebricks {

/// What the optimizer needs to know about datasets (implemented by the
/// asterix metadata manager; a test fake suffices for unit tests).
class Catalog {
 public:
  virtual ~Catalog() = default;

  struct IndexInfo {
    std::string name;
    enum Kind { kBTree, kRTree, kKeyword } kind = kBTree;
    std::string field;
  };

  virtual bool HasDataset(const std::string& name) const = 0;
  /// Primary key field name; empty when `name` is an external dataset.
  virtual std::string PrimaryKeyField(const std::string& name) const = 0;
  virtual std::vector<IndexInfo> SecondaryIndexes(
      const std::string& name) const = 0;
  /// Physical storage format of the dataset's components ("row" or
  /// "columnar"). Predicate pushdown only fires for "columnar".
  virtual std::string StorageFormat(const std::string& name) const {
    (void)name;
    return "row";
  }
};

/// Per-rule switches (all on by default). The Fig. 5 ablation bench flips
/// these one at a time.
struct OptimizerOptions {
  bool constant_folding = true;
  bool select_pushdown = true;
  bool index_selection = true;
  bool dead_assign_elimination = true;
  /// The [26] trick: sort secondary-index result PKs before primary fetch.
  bool sort_pks_before_fetch = true;
  /// Push each scan's and index search's accessed field set into it, so
  /// row datasets build only those fields and columnar datasets read only
  /// those columns; over columnar datasets also push comparison conjuncts
  /// (predicates stay columnar-only; paper §VII: columnar storage). Off =
  /// every record is decoded whole.
  bool scan_pushdown = true;
};

/// Rewrite `root` to a (hopefully) better plan. Pure function of the tree.
Result<LogicalOpPtr> Optimize(LogicalOpPtr root, const Catalog& catalog,
                              const OptimizerOptions& options,
                              const FunctionRegistry& registry);

}  // namespace asterix::algebricks
