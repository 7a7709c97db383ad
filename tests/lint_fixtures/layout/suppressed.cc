// Suppression fixture: the family-form allow on the line above the
// allocation silences its alloc-scale finding while still landing in the
// audit under both the rule and the `layout` family.
#include <memory>
#include <vector>

namespace demo {

void Build(const std::vector<int>& links,
           std::vector<std::unique_ptr<int>>& out) {
  for (const int link : links) {
    // manic-lint: allow(layout: alloc-scale)
    out.push_back(std::make_unique<int>(link));
  }
}

}  // namespace demo
