#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * double(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : std::size_t(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
Window::sliceQuantileMs(const std::vector<Sample> &samples, double q) const
{
    std::map<std::size_t, std::vector<double>> bySlice;
    for (const Sample &s : samples)
        bySlice[std::size_t(s.at)].push_back(s.ms);
    std::vector<double> per;
    for (auto &[slice, ms] : bySlice)
        per.push_back(quantile(std::move(ms), q));
    return median(per);
}

double
Window::sliceRate(const std::vector<Sample> &samples,
                  double Sample::*field) const
{
    std::vector<double> per(std::size_t(elapsed()), 0.0);
    for (const Sample &s : samples)
        if (std::size_t(s.at) < per.size())
            per[std::size_t(s.at)] += s.*field;
    return median(per);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logs = 0.0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / double(v.size()));
}

double
peakRssMb(int pid)
{
    const std::string path = pid > 0
        ? "/proc/" + std::to_string(pid) + "/status"
        : std::string("/proc/self/status");
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

void
checkFailed(const std::string &what)
{
    std::cerr << "perfbench: output check failed: " << what << "\n";
    std::exit(1);
}

std::map<std::string, double>
SpanRecorder::selfUs(std::size_t first) const
{
    std::map<std::string, double> out;
    for (std::size_t i = first; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out[s.name] += double(s.endNs - s.startNs - s.childNs) / 1e3;
    }
    return out;
}

void
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanRecorder *> &recorders)
{
    std::int64_t origin = INT64_MAX;
    for (const SpanRecorder *rec : recorders)
        for (const SpanRecorder::Span &s : rec->spans())
            origin = std::min(origin, s.startNs);

    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buf[64];
    for (const SpanRecorder *rec : recorders) {
        for (const SpanRecorder::Span &s : rec->spans()) {
            out << (first ? "\n" : ",\n");
            first = false;
            out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1"
                << ",\"tid\":" << rec->tid();
            std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                          double(s.startNs - origin) / 1e3,
                          double(s.endNs - s.startNs) / 1e3);
            out << buf << ",\"args\":{\"self_us\":";
            std::snprintf(buf, sizeof buf, "%.3f",
                          double(s.endNs - s.startNs - s.childNs) / 1e3);
            out << buf << "}}";
        }
    }
    out << "\n]}\n";
    if (!out)
        std::cerr << "perfbench: could not write trace " << path << "\n";
}

} // namespace perfbench
