#include "ir/walk.h"

#include <algorithm>

#include "support/common.h"

namespace perfdojo::ir {

const Node* findNode(const Node& root, NodeId id) {
  if (root.id == id) return &root;
  for (const auto& c : root.children) {
    if (const Node* r = findNode(c, id)) return r;
  }
  return nullptr;
}

Node* findNode(Node& root, NodeId id) {
  return const_cast<Node*>(findNode(static_cast<const Node&>(root), id));
}

const Node* findParent(const Node& root, NodeId id) {
  for (const auto& c : root.children) {
    if (c.id == id) return &root;
    if (const Node* r = findParent(c, id)) return r;
  }
  return nullptr;
}

Node* findParent(Node& root, NodeId id) {
  return const_cast<Node*>(findParent(static_cast<const Node&>(root), id));
}

int childIndex(const Node& parent, NodeId id) {
  for (std::size_t i = 0; i < parent.children.size(); ++i)
    if (parent.children[i].id == id) return static_cast<int>(i);
  return -1;
}

namespace {
template <typename T, typename Get>
bool chainTo(const Node& n, NodeId id, std::vector<T>& chain, Get get) {
  if (n.id == id) return true;
  if (!n.isScope()) return false;
  chain.push_back(get(n));
  for (const auto& c : n.children)
    if (chainTo(c, id, chain, get)) return true;
  chain.pop_back();
  return false;
}
}  // namespace

std::vector<NodeId> enclosingScopes(const Node& root, NodeId id) {
  std::vector<NodeId> chain;
  require(chainTo(root, id, chain, [](const Node& n) { return n.id; }),
          "enclosingScopes: node not found");
  // Drop the root container itself.
  if (!chain.empty()) chain.erase(chain.begin());
  return chain;
}

std::vector<const Node*> enclosingScopeNodes(const Node& root, NodeId id) {
  std::vector<const Node*> chain;
  require(chainTo(root, id, chain, [](const Node& n) { return &n; }),
          "enclosingScopes: node not found");
  if (!chain.empty()) chain.erase(chain.begin());
  return chain;
}

int scopeDepthFor(const Node& root, NodeId of, NodeId scope) {
  const auto chain = enclosingScopes(root, of);
  for (std::size_t i = 0; i < chain.size(); ++i)
    if (chain[i] == scope) return static_cast<int>(i);
  return -1;
}

namespace {
template <typename NodeT, typename OutT>
void collectOpsImpl(NodeT& n, std::vector<OutT>& out) {
  if (n.isOp()) {
    out.push_back(&n);
    return;
  }
  for (auto& c : n.children) collectOpsImpl(c, out);
}

template <typename NodeT, typename OutT>
void collectScopesImpl(NodeT& n, std::vector<OutT>& out, bool is_root) {
  if (!n.isScope()) return;
  if (!is_root) out.push_back(&n);
  for (auto& c : n.children) collectScopesImpl(c, out, false);
}
}  // namespace

std::vector<const Node*> collectOps(const Node& root) {
  std::vector<const Node*> out;
  collectOpsImpl(root, out);
  return out;
}

std::vector<Node*> collectOps(Node& root) {
  std::vector<Node*> out;
  collectOpsImpl(root, out);
  return out;
}

std::vector<const Node*> collectScopes(const Node& root) {
  std::vector<const Node*> out;
  collectScopesImpl(root, out, true);
  return out;
}

std::vector<Node*> collectScopes(Node& root) {
  std::vector<Node*> out;
  collectScopesImpl(root, out, true);
  return out;
}

std::vector<const Node*> collectScopesWithin(const Node& root, NodeId id) {
  std::vector<const Node*> out;
  const Node* sub = findNode(root, id);
  if (sub == nullptr) return out;
  if (sub->id != root.id && sub->isScope()) out.push_back(sub);
  collectScopesImpl(*sub, out, true);
  return out;
}

void visit(const Node& root, const std::function<void(const Node&)>& fn) {
  fn(root);
  for (const auto& c : root.children) visit(c, fn);
}

void visitMut(Node& root, const std::function<void(Node&)>& fn) {
  fn(root);
  for (auto& c : root.children) visitMut(c, fn);
}

void substituteIter(Node& root, NodeId from, const IndexExpr& repl) {
  // Every expression is re-simplified, including those that do not use
  // `from`: parsed IR may hold unsimplified forms such as `{0}+0`, and the
  // canonical text of a rewritten subtree depends on that normalization.
  auto rewrite = [&](IndexExpr& e) { e = e.substitute(from, repl).simplified(); };
  if (root.isOp()) {
    for (auto& e : root.out.idx) rewrite(e);
    for (auto& in : root.ins) {
      if (in.kind == Operand::Kind::Array)
        for (auto& e : in.access.idx) rewrite(e);
      else if (in.kind == Operand::Kind::Iter)
        rewrite(in.iter_expr);
    }
  }
  for (auto& c : root.children) substituteIter(c, from, repl);
}

bool subtreeUsesIter(const Node& root, NodeId scope) {
  bool used = false;
  visit(root, [&](const Node& n) {
    if (used || !n.isOp()) return;
    if (n.out.usesIter(scope)) {
      used = true;
      return;
    }
    for (const auto& in : n.ins) {
      if (in.kind == Operand::Kind::Array && in.access.usesIter(scope)) used = true;
      if (in.kind == Operand::Kind::Iter && in.iter_expr.usesIter(scope)) used = true;
    }
  });
  return used;
}

namespace {
void addUnique(std::vector<std::string>& v, const std::string& s) {
  if (std::find(v.begin(), v.end(), s) == v.end()) v.push_back(s);
}
}  // namespace

std::vector<std::string> arraysRead(const Node& root) {
  std::vector<std::string> out;
  visit(root, [&](const Node& n) {
    if (!n.isOp()) return;
    for (const auto& in : n.ins)
      if (in.kind == Operand::Kind::Array) addUnique(out, in.access.array);
  });
  return out;
}

std::vector<std::string> arraysWritten(const Node& root) {
  std::vector<std::string> out;
  visit(root, [&](const Node& n) {
    if (n.isOp()) addUnique(out, n.out.array);
  });
  return out;
}

std::size_t nodeCount(const Node& root) {
  std::size_t n = 0;
  visit(root, [&](const Node&) { ++n; });
  return n;
}

}  // namespace perfdojo::ir
