// Fixture: unordered-iter MUST stay silent on the ordered-reduction
// idiom: gather entries from an unordered container in arbitrary hash
// order, sort them into a pinned total order, THEN consume. The sort
// imposes the output order, so hash order never reaches a result.
#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

struct Entry {
  std::int64_t key = 0;
  double value = 0.0;
};

double merged_sum(const std::unordered_map<std::int64_t, double>& cells) {
  std::vector<Entry> entries;
  for (const auto& [key, value] : cells) {
    entries.push_back(Entry{key, value});  // gather, order irrelevant
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  double total = 0.0;
  for (const Entry& e : entries) total += e.value;  // pinned fold order
  return total;
}

std::vector<std::string> merged_names(
    const std::unordered_map<std::string, int>& counts) {
  std::vector<std::string> names;
  for (const auto& kv : counts) {
    names.push_back(kv.first);
  }
  std::stable_sort(names.begin(), names.end());
  return names;
}
