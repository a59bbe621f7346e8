#include "lat_scheme.hh"

#include <algorithm>

#include "support/logging.hh"

namespace vliw {

LatencyScheme::LatencyScheme(std::vector<int> lats,
                             std::vector<std::string> names,
                             bool four_class)
    : latencies_(std::move(lats)), names_(std::move(names)),
      fourClass_(four_class)
{
    vliw_assert(latencies_.size() == names_.size(),
                "latency/name size mismatch");
    vliw_assert(latencies_.size() <= std::size_t(kMaxClasses),
                "too many latency classes");
    vliw_assert(std::is_sorted(latencies_.begin(), latencies_.end()),
                "latency classes must be ascending");
}

LatencyScheme
LatencyScheme::fourClass(const MachineConfig &cfg)
{
    return LatencyScheme(
        {cfg.latLocalHit, cfg.latRemoteHit, cfg.latLocalMiss,
         cfg.latRemoteMiss},
        {"LH", "RH", "LM", "RM"}, true);
}

LatencyScheme
LatencyScheme::twoClassUnified(const MachineConfig &cfg)
{
    return LatencyScheme(
        {cfg.latUnified, cfg.latUnified + cfg.latNextLevel},
        {"hit", "miss"}, false);
}

LatencyScheme
LatencyScheme::twoClassCoherent(const MachineConfig &cfg)
{
    return LatencyScheme(
        {cfg.latCoherentHit, cfg.latCoherentHit + cfg.latNextLevel},
        {"hit", "miss"}, false);
}

int
LatencyScheme::classLatency(LatClass cls) const
{
    vliw_assert(cls >= 0 && cls < numClasses(), "bad latency class");
    return latencies_[std::size_t(cls)];
}

const std::string &
LatencyScheme::className(LatClass cls) const
{
    vliw_assert(cls >= 0 && cls < numClasses(), "bad latency class");
    return names_[std::size_t(cls)];
}

std::array<double, LatencyScheme::kMaxClasses>
LatencyScheme::classProbabilities(const MemProfile &prof) const
{
    const double h = prof.hitRate;
    if (fourClass_) {
        const double l = prof.localRatio;
        return {h * l, h * (1.0 - l), (1.0 - h) * l,
                (1.0 - h) * (1.0 - l)};
    }
    return {h, 1.0 - h, 0.0, 0.0};
}

double
LatencyScheme::expectedStall(const MemProfile &prof,
                             int scheduled_lat) const
{
    const std::array<double, kMaxClasses> probs =
        classProbabilities(prof);
    double stall = 0.0;
    for (int cls = 0; cls < numClasses(); ++cls) {
        const int extra = latencies_[std::size_t(cls)] - scheduled_lat;
        if (extra > 0)
            stall += probs[std::size_t(cls)] * double(extra);
    }
    return stall;
}

} // namespace vliw
