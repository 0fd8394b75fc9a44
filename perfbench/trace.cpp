#include "trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "support/common.h"

namespace perfbench {

const char* const kMachineNames[4] = {"snitch", "xeon", "gh200", "mi300a"};

int machineIndex(const std::string& name) {
  for (int i = 0; i < 4; ++i)
    if (name == kMachineNames[i]) return i;
  return -1;
}

std::int64_t Tracer::newId() { return next_id_++; }

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

TracingMachine::TracingMachine(const perfdojo::machines::Machine& base,
                               Tracer& tracer, std::int64_t parent,
                               std::int64_t job)
    : base_(base),
      tracer_(tracer),
      parent_(parent),
      job_(job),
      machine_(machineIndex(base.name())) {}

Span TracingMachine::begin(const char* name) const {
  Span s;
  s.name = name;
  s.id = tracer_.newId();
  s.parent = parent_;
  s.job = job_;
  s.machine = machine_;
  s.start_ns = nowNs();
  return s;
}

double TracingMachine::evaluate(const perfdojo::ir::Program& p) const {
  Span s = begin("machines.evaluate");
  const double cost = base_.evaluate(p);
  s.end_ns = nowNs();
  tracer_.record(s);
  return cost;
}

double TracingMachine::lowerBound(const perfdojo::ir::Program& p) const {
  Span s = begin("machines.lower_bound");
  const double bound = base_.lowerBound(p);
  s.end_ns = nowNs();
  tracer_.record(s);
  return bound;
}

void Tracer::writeJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : spans())
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << ",\"machine\":" << s.machine << "}\n";
  out.flush();
  perfdojo::require(static_cast<bool>(out), "cannot write spans to " + path);
}

ScopedSpan::ScopedSpan(Tracer& t, const char* name, std::int64_t parent,
                       std::int64_t job)
    : tracer_(t) {
  span_.name = name;
  span_.id = t.newId();
  span_.parent = parent;
  span_.job = job;
  span_.start_ns = nowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = nowNs();
  tracer_.record(span_);
}

std::vector<double> selfTimesNs(const std::vector<Span>& spans,
                                const char* name) {
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& s : spans)
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::vector<double> out;
  for (const auto& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    auto& iv = children[s.id];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t a = std::max(lo, s.start_ns);
      const std::int64_t b = std::min(hi, s.end_ns);
      if (b <= a) continue;
      if (a > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out.push_back(static_cast<double>(s.durationNs() - covered));
  }
  return out;
}

}  // namespace perfbench
