#include "report.h"

#include <fstream>

#include "bench_stats.h"

namespace perfbench {

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::addTiming(const std::string& name, const std::vector<double>& seconds,
                       double scale, const std::string& unit) {
  if (seconds.empty()) return;
  std::vector<double> xs;
  xs.reserve(seconds.size());
  for (double s : seconds) xs.push_back(s * scale);
  const auto addPct = [&](int permille) {
    std::string label = std::to_string(permille / 10);
    if (permille % 10) {
      label += '.';
      label += static_cast<char>('0' + permille % 10);
    }
    add(name + "_p" + label, percentile(xs, permille), unit);
  };
  addPct(500);
  // p90 is the named tail; the highest supported percentile rides along.
  if (tailSupported(xs.size(), 900)) addPct(900);
  const int highest = highestTailPermille(xs.size());
  if (highest > 500 && highest != 900) addPct(highest);
  add(name + "_n", static_cast<double>(xs.size()), "count");
}

void Report::job(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) fail(why);
}

void Report::fail(const std::string& why) {
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(why);
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // process image that exec'd this one (a Python launcher, say).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0;
}

}  // namespace perfbench
