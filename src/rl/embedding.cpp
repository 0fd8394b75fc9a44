#include "rl/embedding.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "ir/canonical.h"
#include "support/common.h"

namespace perfdojo::rl {

namespace {

constexpr std::size_t kMinGram = 3;
constexpr std::size_t kMaxGram = 5;
/// How far outside an edit an n-gram that overlaps it can start or end.
constexpr std::uint32_t kReach = kMaxGram - 1;

}  // namespace

TextEmbedder::TextEmbedder(int dim, std::uint64_t seed)
    : dim_(dim), seed_(seed) {
  require(dim > 0, "TextEmbedder: dim must be positive");
}

std::vector<double> TextEmbedder::embed(std::string_view text) const {
  return normalize(counts(text));
}

std::vector<std::int64_t> TextEmbedder::counts(std::string_view text) const {
  std::vector<std::int64_t> c(static_cast<std::size_t>(dim_), 0);
  addCounts(text, 1, c);
  return c;
}

void TextEmbedder::addCounts(std::string_view text, std::int64_t sign,
                             std::vector<std::int64_t>& counts) const {
  require(counts.size() == static_cast<std::size_t>(dim_),
          "TextEmbedder: counts dim mismatch");
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  const std::size_t n = text.size();
  const auto dim = static_cast<std::uint64_t>(dim_);
  auto add = [&](std::uint64_t h) {
    counts[h % dim] += ((h >> 32) & 1) ? sign : -sign;
  };
  // One pass: the 4- and 5-gram starting at i carry on the 3-gram's FNV
  // state, since fnv1a over n + 1 bytes is one step past fnv1a over n.
  for (std::size_t i = 0; i + kMinGram <= n; ++i) {
    std::uint64_t h = fnv1a(p + i, kMinGram, seed_);
    add(h);
    for (std::size_t j = i + kMinGram; j < i + kMaxGram && j < n; ++j) {
      h = fnv1aStep(h, p[j]);
      add(h);
    }
  }
}

void TextEmbedder::applySplice(std::string_view base, const ir::TextSplice& s,
                               std::vector<std::int64_t>& counts) const {
  // A re-rendered subtree mostly repeats its base bytes (a split or an
  // annotation changes a few lines), so each edit is first trimmed of the
  // bytes its replacement shares with the base at either end; an edit left
  // with nothing to change is skipped.
  std::size_t i = 0;
  auto next = [&](ir::TextEdit& e) {
    while (i < s.edits.size()) {
      e = s.edits[i++];
      while (e.begin < e.end && e.len > 0 && base[e.begin] == s.bytes[e.off]) {
        ++e.begin;
        ++e.off;
        --e.len;
      }
      while (e.begin < e.end && e.len > 0 &&
             base[e.end - 1] == s.bytes[e.off + e.len - 1]) {
        --e.end;
        --e.len;
      }
      if (e.begin < e.end || e.len > 0) return true;
    }
    return false;
  };
  std::string window;
  ir::TextEdit e;
  bool more = next(e);
  while (more) {
    const std::size_t lo = e.begin - std::min(e.begin, kReach);
    window.assign(base.substr(lo, e.begin - lo));
    window.append(s.bytes.substr(e.off, e.len));
    std::uint32_t end = e.end;
    // Edits less than kReach kept bytes apart share n-grams: one window.
    while ((more = next(e)) && e.begin - end < kReach) {
      window.append(base.substr(end, e.begin - end));
      window.append(s.bytes.substr(e.off, e.len));
      end = e.end;
    }
    const std::size_t hi = std::min<std::size_t>(base.size(), end + kReach);
    window.append(base.substr(end, hi - end));
    addCounts(base.substr(lo, hi - lo), -1, counts);
    addCounts(window, 1, counts);
  }
}

std::vector<double> TextEmbedder::normalize(
    const std::vector<std::int64_t>& counts) {
  std::vector<double> v(counts.begin(), counts.end());
  double norm = 0;
  for (double x : v) norm += x * x;
  norm = std::sqrt(norm);
  if (norm > 0)
    for (double& x : v) x /= norm;
  return v;
}

std::vector<double> TextEmbedder::embedProgram(const ir::Program& p) const {
  return embed(ir::canonicalText(p));
}

double TextEmbedder::cosine(const std::vector<double>& a,
                            const std::vector<double>& b) {
  require(a.size() == b.size(), "cosine: dim mismatch");
  double dot = 0, na = 0, nb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0 || nb == 0) return 0;
  return dot / std::sqrt(na * nb);
}

}  // namespace perfdojo::rl
