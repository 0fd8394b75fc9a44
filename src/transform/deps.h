// Dependency analysis underpinning transformation applicability checks.
//
// All checks are *conservative*: they may reject a legal transformation but
// never accept an illegal one. Aliasing is resolved at buffer granularity:
// two arrays in the same buffer always conflict; indices of the same array
// are compared only at materialized dimensions (non-materialized dims share
// storage, so they alias by construction).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "ir/program.h"

namespace perfdojo::transform {

/// Flattened view of one operation's memory behaviour. It borrows: `op`,
/// `write` and the read pointers point into the op node, so an OpInfo is
/// valid only while that node is neither moved nor destroyed (a copy of the
/// program, or a change to the parent's child list, ends it).
struct OpInfo {
  const ir::Node* op = nullptr;
  const ir::Access* write = nullptr;
  /// The op's array operands in operand order; op arity is at most 3.
  std::array<const ir::Access*, 3> read_slots{};
  std::size_t num_reads = 0;
  std::span<const ir::Access* const> reads() const {
    return {read_slots.data(), num_reads};
  }
  /// True when the op is of accumulation form: the output element also
  /// appears as an input with an identical access, and the opcode is
  /// associative + commutative (add/mul/max/min). Reductions in the IR are
  /// expressed this way (Table 2).
  bool is_accumulation = false;
};

OpInfo opInfo(const ir::Node& op);

/// All OpInfos in a subtree, execution order (borrowing from it).
std::vector<OpInfo> collectOpInfos(const ir::Node& root);

/// Whether two accesses may touch the same memory. Conservative.
bool mayAlias(const ir::Program& p, const ir::Access& a, const ir::Access& b);

/// Whether two accesses certainly touch the same element *in the same
/// iteration*, treating `iter_a` (in a's expressions) and `iter_b` (in b's)
/// as the same iterator. Used by fusion/fission legality: a cross-loop
/// dependency is harmless iff producer and consumer agree on the iteration.
bool sameElementUnderIterMap(const ir::Program& p, const ir::Access& a,
                             ir::NodeId iter_a, const ir::Access& b,
                             ir::NodeId iter_b);

/// Legality of executing bodies A and B fused under a common iterator
/// (iter_a in A, iter_b in B): every cross conflict (write/read, read/write,
/// write/write on aliasing memory) must be a same-iteration, same-element
/// dependency. This single predicate serves join_scopes and fission_scope
/// (fission of S into A;B is legal iff fusing A and B back is).
bool fusionLegal(const ir::Program& p, std::span<const ir::Node> body_a,
                 ir::NodeId iter_a, std::span<const ir::Node> body_b,
                 ir::NodeId iter_b);

/// Legality of swapping two adjacent sibling ops (no aliasing between one's
/// write and the other's accesses).
bool opsSwappable(const ir::Program& p, const ir::Node& a, const ir::Node& b);

/// Legality of interchanging perfectly nested scopes `outer` and `inner`:
/// every write in the nest must either (a) address distinct elements for
/// distinct (outer, inner) pairs with all same-buffer reads agreeing on the
/// index, or (b) be an accumulation whose combiner is associative+commutative.
bool interchangeLegal(const ir::Program& p, const ir::Node& outer,
                      const ir::Node& inner);

/// Independence of a scope's iterations (required by parallelize / GPU
/// mapping): every write addresses elements that differ across iterations of
/// `scope`, and every read of an internally-written buffer matches the write
/// index in the dimensions that use the scope's iterator.
bool iterationsIndependent(const ir::Program& p, const ir::Node& scope);

}  // namespace perfdojo::transform
