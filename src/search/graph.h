// The transformation graph (Figure 4): nodes are canonical programs, edges
// are single transformations. Supports bounded exploration around a program
// and GraphViz export for inspecting optimization paths.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "machines/machine.h"
#include "transform/transform.h"

namespace perfdojo::search {

class EvalCache;
class ParallelEvaluator;

struct GraphNode {
  std::uint64_t hash = 0;
  ir::Program program;
  double runtime = 0;
  int depth = 0;
};

struct GraphEdge {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::string label;  // transformation description
};

class TransformationGraph {
 public:
  /// Breadth-first expansion from `root` up to `max_depth`, capping the
  /// total node count (distinct canonical programs). Each node is evaluated
  /// exactly once: duplicate-hash candidates are deduplicated *before* any
  /// evaluation, and leaves at the depth limit are never enqueued.
  ///
  /// Each node is a search::Neighborhood derived from its parent's by
  /// accepting the producing action, so children are identified by
  /// incremental (in-place) canonical hashing and only the deduplicated
  /// fresh nodes are ever materialized into tree copies. An optional
  /// EvalCache shares costs with other consumers (a search run, a Dojo
  /// session); an optional ParallelEvaluator materializes and prices each
  /// parent's unique new children concurrently. Both knobs are purely
  /// accelerative: the resulting graph is identical with or without them.
  /// Every applicable action is expanded: the learned prior's top-k filter
  /// belongs to the SA-edges annealer alone (SearchConfig::prior).
  TransformationGraph(const ir::Program& root, const machines::Machine& m,
                      int max_depth, std::size_t max_nodes,
                      EvalCache* cache = nullptr,
                      ParallelEvaluator* pool = nullptr);

  std::size_t nodeCount() const { return nodes_.size(); }
  std::size_t edgeCount() const { return edges_.size(); }
  const std::map<std::uint64_t, GraphNode>& nodes() const { return nodes_; }
  const std::vector<GraphEdge>& edges() const { return edges_; }

  const GraphNode* find(std::uint64_t hash) const;
  const GraphNode& best() const;
  const GraphNode& root() const;

  /// Shortest path (in moves) from the root to the given node; edge labels.
  std::vector<std::string> pathTo(std::uint64_t hash) const;

  /// GraphViz dot rendering (runtime-colored nodes).
  std::string toDot(std::size_t max_rendered = 64) const;

 private:
  std::uint64_t root_hash_ = 0;
  std::map<std::uint64_t, GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::string>> parent_;
};

}  // namespace perfdojo::search
