// Strongly connected components by Tarjan's algorithm, used by the
// rule-level reliance scheduler (src/datalog/reliance.h).
//
// The traversal is fully iterative (explicit DFS frames, no recursion), so
// component extraction is safe on adversarially deep graphs — a linear
// chain as long as the input cannot overflow the call stack.
//
// Numbering contract: components are numbered in REVERSE topological
// order of the condensation — for every edge u → v with comp(u) ≠
// comp(v), comp(v) < comp(u). Iterating component ids in DECREASING
// order therefore visits sources (producers) before the components that
// depend on them; both consumers rely on this.
#ifndef DATALOGO_CORE_SCC_H_
#define DATALOGO_CORE_SCC_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace datalogo {

/// Tarjan SCC over a small adjacency list. Construct with the graph,
/// call Run() once, then read components()/num_components().
class Tarjan {
 public:
  explicit Tarjan(const std::vector<std::vector<int>>& adj)
      : adj_(adj),
        index_(adj.size(), -1),
        low_(adj.size(), 0),
        on_stack_(adj.size(), false),
        comp_(adj.size(), -1) {}

  void Run() {
    for (std::size_t v = 0; v < adj_.size(); ++v) {
      if (index_[v] < 0) Visit(static_cast<int>(v));
    }
  }

  /// comp_[v] = component id of vertex v (valid after Run()).
  const std::vector<int>& components() const { return comp_; }
  int num_components() const { return num_comps_; }

 private:
  /// One suspended DFS position: vertex plus the next out-edge to try.
  struct Frame {
    int v;
    std::size_t edge;
  };

  /// Iterative DFS from `root`, numbering vertices in the exact order
  /// the textbook recursive formulation would (children expanded in
  /// adjacency order, low-links folded into the parent on frame pop).
  void Visit(int root) {
    index_[root] = low_[root] = next_index_++;
    stack_.push_back(root);
    on_stack_[root] = true;
    frames_.push_back(Frame{root, 0});
    while (!frames_.empty()) {
      Frame& f = frames_.back();
      if (f.edge < adj_[f.v].size()) {
        const int w = adj_[f.v][f.edge++];
        if (index_[w] < 0) {
          index_[w] = low_[w] = next_index_++;
          stack_.push_back(w);
          on_stack_[w] = true;
          frames_.push_back(Frame{w, 0});
        } else if (on_stack_[w]) {
          low_[f.v] = std::min(low_[f.v], index_[w]);
        }
        continue;
      }
      const int v = f.v;
      frames_.pop_back();
      if (low_[v] == index_[v]) {
        const int c = num_comps_++;
        while (true) {
          const int w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = false;
          comp_[w] = c;
          if (w == v) break;
        }
      }
      if (!frames_.empty()) {
        low_[frames_.back().v] = std::min(low_[frames_.back().v], low_[v]);
      }
    }
  }

  const std::vector<std::vector<int>>& adj_;
  std::vector<int> index_, low_;
  std::vector<bool> on_stack_;
  std::vector<int> comp_;
  std::vector<int> stack_;
  std::vector<Frame> frames_;
  int next_index_ = 0;
  int num_comps_ = 0;
};

}  // namespace datalogo

#endif  // DATALOGO_CORE_SCC_H_
