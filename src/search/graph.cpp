#include "search/graph.h"

#include <algorithm>
#include <deque>

#include "ir/canonical.h"
#include "search/evalcache.h"
#include "search/neighborhood.h"
#include "search/parallel_eval.h"
#include "support/common.h"
#include "support/strings.h"

namespace perfdojo::search {

namespace {

double nodeCost(const machines::Machine& m, EvalCache* cache,
                std::uint64_t hash, const ir::Program& p) {
  return cache ? cache->evaluateHashed(m, hash, p) : m.evaluate(p);
}

}  // namespace

TransformationGraph::TransformationGraph(const ir::Program& root,
                                         const machines::Machine& m,
                                         int max_depth, std::size_t max_nodes,
                                         EvalCache* cache,
                                         ParallelEvaluator* pool) {
  root_hash_ = ir::canonicalHash(root);
  nodes_[root_hash_] = {root_hash_, root,
                        nodeCost(m, cache, root_hash_, root), 0};
  std::deque<std::uint64_t> frontier;
  if (max_depth > 0) frontier.push_back(root_hash_);
  // Derived neighborhoods: BFS expands all children of one parent
  // consecutively, so one Neighborhood bound to that parent is copied and
  // advanced by each child's producing action — one full enumeration per
  // PARENT, a splice per child. `via` remembers which (parent, action)
  // produced each enqueued node; the derived action lists are
  // element-identical to a fresh allActions, so the expansion order and the
  // dedup sequence are those of a re-enumerating expansion.
  Neighborhood parent_nb;
  std::uint64_t parent_key = 0;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, transform::Action>>
      via;
  Neighborhood nb;
  while (!frontier.empty() && nodes_.size() < max_nodes) {
    const std::uint64_t h = frontier.front();
    frontier.pop_front();
    const int depth = nodes_.at(h).depth;
    const auto vit = via.find(h);
    if (vit != via.end()) {
      const std::uint64_t qh = vit->second.first;
      if (!parent_nb.bound() || parent_key != qh) {
        parent_nb.bind(nodes_.at(qh).program, m.caps());
        parent_key = qh;
      }
      // accept() assigns ids deterministically from the same parent, so the
      // derived base equals the stored program exactly.
      nb = parent_nb;
      nb.accept(vit->second.second);
      via.erase(vit);
    } else {
      nb.bind(nodes_.at(h).program, m.caps());
    }
    const ir::Program& p = nb.base();
    const std::vector<transform::Action>& actions = nb.actions();

    // Phase 1 (serial, in action order): hash each child in place against
    // `p` (no tree copies; a Neighborhood is inherently serial), record
    // edges, deduplicate by canonical hash BEFORE any materialization or
    // evaluation, insert new nodes, and enqueue only nodes that are
    // strictly inside the depth limit.
    std::vector<std::uint64_t> fresh;
    std::vector<std::size_t> fresh_action;
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (nodes_.size() >= max_nodes) break;
      const std::uint64_t ch = nb.neighborHash(actions[i]);
      const std::string label = actions[i].describe(p);
      edges_.push_back({h, ch, label});
      if (nodes_.count(ch)) continue;  // reached earlier by another path
      GraphNode node;
      node.hash = ch;
      node.depth = depth + 1;
      parent_[ch] = {h, label};
      if (node.depth < max_depth) {
        frontier.push_back(ch);
        via.emplace(ch, std::make_pair(h, actions[i]));
      }
      nodes_[ch] = std::move(node);
      fresh.push_back(ch);
      fresh_action.push_back(i);
    }

    // Phase 2: materialize and price the deduplicated fresh nodes,
    // concurrently when possible — duplicate-hash candidates were never
    // copied at all. The map is not resized here, so each worker fills a
    // distinct entry.
    auto price = [&](std::size_t i) {
      GraphNode& node = nodes_.at(fresh[i]);
      node.program = actions[fresh_action[i]].apply(p);
      node.runtime = nodeCost(m, cache, node.hash, node.program);
    };
    if (pool)
      pool->forEach(fresh.size(), price);
    else
      for (std::size_t i = 0; i < fresh.size(); ++i) price(i);
  }
}

const GraphNode* TransformationGraph::find(std::uint64_t hash) const {
  auto it = nodes_.find(hash);
  return it == nodes_.end() ? nullptr : &it->second;
}

const GraphNode& TransformationGraph::best() const {
  const GraphNode* best = nullptr;
  for (const auto& [h, n] : nodes_)
    if (!best || n.runtime < best->runtime) best = &n;
  require(best != nullptr, "TransformationGraph: empty graph");
  return *best;
}

const GraphNode& TransformationGraph::root() const {
  return nodes_.at(root_hash_);
}

std::vector<std::string> TransformationGraph::pathTo(std::uint64_t hash) const {
  std::vector<std::string> path;
  std::uint64_t cur = hash;
  while (cur != root_hash_) {
    auto it = parent_.find(cur);
    require(it != parent_.end(), "pathTo: node not reachable from root");
    path.push_back(it->second.second);
    cur = it->second.first;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string TransformationGraph::toDot(std::size_t max_rendered) const {
  std::string out = "digraph perfdojo {\n  rankdir=LR;\n  node [shape=box];\n";
  const double best_rt = best().runtime;
  std::size_t rendered = 0;
  std::map<std::uint64_t, bool> shown;
  for (const auto& [h, n] : nodes_) {
    if (rendered++ >= max_rendered) break;
    shown[h] = true;
    const bool is_best = n.runtime <= best_rt * 1.0001;
    out += "  n" + std::to_string(h) + " [label=\"" + fmt(n.runtime, 3) +
           "s\\nd=" + std::to_string(n.depth) + "\"" +
           (is_best ? ", style=filled, fillcolor=palegreen" : "") + "];\n";
  }
  for (const auto& e : edges_) {
    if (!shown.count(e.from) || !shown.count(e.to)) continue;
    std::string label = e.label.substr(0, 24);
    out += "  n" + std::to_string(e.from) + " -> n" + std::to_string(e.to) +
           " [label=\"" + label + "\"];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace perfdojo::search
