// Program-text embedding: the stand-in for the paper's LLM encoder E(k).
//
// PerfLLM only requires a fixed function mapping the human-readable kernel
// text to a dense vector such that textually similar programs embed nearby
// (Section 3.1: "the primary role of the LLM is to encode the PerfDojo
// program representation into a numerical embedding vector"). We use signed
// hashed character n-grams over the canonical program text, L2-normalized —
// deterministic, dependency-free, and locality-preserving for the
// line-oriented IR (one transformation changes few lines, hence few n-gram
// buckets). See DESIGN.md substitutions.
//
// The embedding is a normalized integer histogram, and that is what makes
// it cheap to maintain under small edits:
//
//   embed(t) == normalize(counts(t))            bit for bit
//   applySplice(base, s, counts(base)) == counts(s.apply(base))
//
// An n-gram (n <= 5) of the edited text that is not a byte-identical n-gram
// of the base lies within 4 bytes of a changed byte, so a splice costs the
// bytes its edits change plus a 4-byte margin on each side, not a recount
// of the text. The counts are exact integers, so spliced features equal the
// full-text ones.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ir/arena.h"
#include "ir/program.h"

namespace perfdojo::rl {

class TextEmbedder {
 public:
  explicit TextEmbedder(int dim = 48, std::uint64_t seed = 0xE5CAFE);

  int dim() const { return dim_; }

  /// Embeds raw text (n-grams of length 3..5, signed feature hashing):
  /// normalize(counts(text)).
  std::vector<double> embed(std::string_view text) const;

  /// Embeds a program via its canonical text.
  std::vector<double> embedProgram(const ir::Program& p) const;

  /// Signed bucket counts (dim() entries) of every 3-, 4- and 5-gram of
  /// `text`.
  std::vector<std::int64_t> counts(std::string_view text) const;

  /// Turns counts(base) into counts(s.apply(base)) by recounting only the
  /// n-grams around each edit, after trimming the bytes an edit's
  /// replacement shares with the base at either end (edits closer than the
  /// n-gram reach are one window).
  void applySplice(std::string_view base, const ir::TextSplice& s,
                   std::vector<std::int64_t>& counts) const;

  /// L2-normalized counts as doubles (all zeros stay zeros).
  static std::vector<double> normalize(const std::vector<std::int64_t>& counts);

  /// Cosine similarity between two embeddings.
  static double cosine(const std::vector<double>& a,
                       const std::vector<double>& b);

 private:
  /// Adds `sign` times the bucket counts of `text` into `counts`.
  void addCounts(std::string_view text, std::int64_t sign,
                 std::vector<std::int64_t>& counts) const;

  int dim_;
  std::uint64_t seed_;
};

}  // namespace perfdojo::rl
