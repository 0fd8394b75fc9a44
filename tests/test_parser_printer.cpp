#include <gtest/gtest.h>

#include "ir/canonical.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/walk.h"
#include "kernels/kernels.h"
#include "support/common.h"

namespace perfdojo::ir {
namespace {

TEST(Printer, SoftmaxTextShape) {
  const Program p = kernels::makeSoftmax(4, 8);
  const std::string text = printProgram(p);
  EXPECT_NE(text.find("kernel softmax"), std::string::npos);
  EXPECT_NE(text.find("buffer x f32 [4, 8] heap"), std::string::npos);
  EXPECT_NE(text.find("mx[{0}] = max mx[{0}] x[{0},{1}]"), std::string::npos);
  EXPECT_NE(text.find("mx[{0}] = mov -inf"), std::string::npos);
  EXPECT_NE(text.find("| "), std::string::npos);
}

TEST(Parser, RoundTripsEveryTable3Kernel) {
  for (const auto& k : kernels::table3()) {
    const Program p = k.build_small();
    const std::string text = printProgram(p);
    const Program q = parseProgram(text);
    EXPECT_TRUE(canonicallyEqual(p, q)) << "kernel " << k.label;
  }
}

TEST(Parser, RoundTripsSnitchMicroKernels) {
  for (const auto& k : kernels::snitchMicro()) {
    const Program p = k.build_small();
    EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))))
        << "kernel " << k.label;
  }
}

TEST(Parser, ParsesAnnotations) {
  const std::string text =
      "kernel k\n"
      "buffer x f32 [4, 8] heap\n"
      "buffer y f32 [4, 8] heap\n"
      "in x\nout y\n\n"
      "4:p\n"
      "| 8:v\n"
      "| | y[{0},{1}] = relu x[{0},{1}]\n";
  const Program p = parseProgram(text);
  auto scopes = collectScopes(p.root);
  ASSERT_EQ(scopes.size(), 2u);
  EXPECT_EQ(scopes[0]->anno, LoopAnno::Parallel);
  EXPECT_EQ(scopes[1]->anno, LoopAnno::Vector);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

TEST(Parser, ParsesReusedDimAndSharedBuffers) {
  const std::string text =
      "kernel k\n"
      "buffer x f32 [4] heap\n"
      "buffer t f32 [4:N] stack -> a, b\n"
      "buffer y f32 [4] heap\n"
      "in x\nout y\n\n"
      "4\n"
      "| a[{0}] = mov x[{0}]\n"
      "| b[{0}] = mul a[{0}] 2\n"
      "| y[{0}] = mov b[{0}]\n";
  const Program p = parseProgram(text);
  const Buffer* t = p.findBuffer("t");
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->materialized[0]);
  EXPECT_EQ(t->arrays.size(), 2u);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

TEST(Parser, ParsesAffineIndices) {
  const std::string text =
      "kernel k\n"
      "buffer x f32 [16] heap\n"
      "buffer y f32 [16] heap\n"
      "in x\nout y\n\n"
      "4\n"
      "| 4\n"
      "| | y[{0}*4+{1}] = mov x[{0}*4+{1}]\n";
  const Program p = parseProgram(text);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

TEST(Parser, ParsesDivMod) {
  const std::string text =
      "kernel k\n"
      "buffer x f32 [4, 4] heap\n"
      "buffer y f32 [4, 4] heap\n"
      "in x\nout y\n\n"
      "16\n"
      "| y[{0}/4,{0}%4] = mov x[{0}/4,{0}%4]\n";
  const Program p = parseProgram(text);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

TEST(Parser, IterValueOperand) {
  // "index as value" (Table 2): z[i] = x[i] * i
  const std::string text =
      "kernel k\n"
      "buffer x f32 [8] heap\n"
      "buffer z f32 [8] heap\n"
      "in x\nout z\n\n"
      "8\n"
      "| z[{0}] = mul x[{0}] {0}\n";
  const Program p = parseProgram(text);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(printProgram(p))));
}

/// Asserts that parsing fails with a diagnostic containing `needle` — a
/// malformed program must produce a targeted Error, never a crash or a
/// generic message.
std::string parseDiagnostic(const std::string& text) {
  try {
    parseProgram(text);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected parse failure for:\n" << text;
  return "";
}

TEST(Parser, RejectsBadDepth) {
  const std::string text =
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| x[{3}] = mov 0\n";
  const std::string msg = parseDiagnostic(text);
  EXPECT_NE(msg.find("iterator depth {3} out of range"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("nesting depth 1"), std::string::npos) << msg;
}

TEST(Parser, RejectsUnknownOp) {
  const std::string text =
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| x[{0}] = frobnicate 0\n";
  const std::string msg = parseDiagnostic(text);
  EXPECT_NE(msg.find("unknown op 'frobnicate'"), std::string::npos) << msg;
}

TEST(Parser, RejectsIndentJump) {
  const std::string text =
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| | x[{0}] = mov 0\n";
  const std::string msg = parseDiagnostic(text);
  EXPECT_NE(msg.find("indentation jumps by more than one level"),
            std::string::npos)
      << msg;
}

TEST(Parser, RejectsBadIndexExpression) {
  // A non-integer, non-iterator index: the cursor reports what it wanted.
  const std::string text =
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| x[$] = mov 0\n";
  const std::string msg = parseDiagnostic(text);
  EXPECT_NE(msg.find("expected integer"), std::string::npos) << msg;
}

TEST(Parser, RejectsUnknownDType) {
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f97 [8] heap\nin x\nout x\n\n8\n| x[{0}] = mov 0\n");
  EXPECT_NE(msg.find("unknown dtype 'f97'"), std::string::npos) << msg;
}

TEST(Parser, RejectsUnknownMemSpace) {
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f32 [8] moon\nin x\nout x\n\n8\n| x[{0}] = mov 0\n");
  EXPECT_NE(msg.find("unknown memory space 'moon'"), std::string::npos) << msg;
}

TEST(Parser, RejectsEmptyTreeLine) {
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n8\n|\n");
  EXPECT_NE(msg.find("empty tree line"), std::string::npos) << msg;
}

TEST(Parser, RejectsAccessToUndeclaredBuffer) {
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| y[{0}] = mov x[{0}]\n");
  EXPECT_NE(msg.find("unknown array 'y'"), std::string::npos) << msg;
}

TEST(Parser, DiagnosticsCarryLineNumbers) {
  // The bad op is on line 7; the diagnostic must say so.
  const std::string msg = parseDiagnostic(
      "kernel k\nbuffer x f32 [8] heap\nin x\nout x\n\n"
      "8\n"
      "| x[{0}] = frobnicate 0\n");
  EXPECT_NE(msg.find("line 7"), std::string::npos) << msg;
}

TEST(Parser, CommentsIgnored) {
  const std::string text =
      "kernel k\n"
      "# a comment\n"
      "buffer x f32 [8] heap\n"
      "in x\nout x\n\n"
      "8   # loop over elements\n"
      "| x[{0}] = mul x[{0}] 2  # double in place\n";
  EXPECT_NO_THROW(parseProgram(text));
}

TEST(Walk, SubstituteIterNormalizesUntouchedExpressions) {
  const std::string text =
      "kernel k\n"
      "buffer x f32 [4, 8] heap\n"
      "buffer y f32 [4, 8] heap\n"
      "in x\nout y\n\n"
      "4\n"
      "| 8\n"
      "| | y[{0},{1}] = relu x[{0},{1}]\n";
  const Program normalized = parseProgram(text);
  // The parser simplifies what it reads, so the unsimplified `{0}+0` (the
  // outer iterator, which the substitution below leaves alone) is planted
  // directly in the output access.
  Program p = parseProgram(text);
  const auto scopes = collectScopes(p.root);
  ASSERT_EQ(scopes.size(), 2u);
  const NodeId outer = scopes[0]->id;
  const NodeId inner = scopes[1]->id;
  Node& op = scopes[1]->children[0];
  op.out.idx[0] = IndexExpr::add(IndexExpr::iter(outer), IndexExpr::constant(0));
  ASSERT_NE(canonicalText(p), canonicalText(normalized));

  substituteIter(p.root, inner, IndexExpr::iter(inner));
  EXPECT_TRUE(op.out.idx[0] == IndexExpr::iter(outer));
  EXPECT_EQ(canonicalText(p), canonicalText(normalized));
  // The hash the copy-based rewrite produced for this program.
  EXPECT_EQ(canonicalHash(p), 7852263724742562616ull);
}

TEST(Parser, TransformedProgramRoundTrips) {
  // reused dims + annotations + affine indices all at once.
  Program p = kernels::makeSoftmax(4, 8);
  EXPECT_TRUE(canonicallyEqual(p, parseProgram(canonicalText(p))));
}

}  // namespace
}  // namespace perfdojo::ir
