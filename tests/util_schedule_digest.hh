/**
 * @file
 * FNV-1a digest over every field that defines a schedule bit for
 * bit, for goldens that pin schedules without printing them.
 */

#ifndef WIVLIW_TESTS_UTIL_SCHEDULE_DIGEST_HH
#define WIVLIW_TESTS_UTIL_SCHEDULE_DIGEST_HH

#include <cstdint>

#include "sched/schedule.hh"

namespace vliw::testutil {

class ScheduleDigest
{
  public:
    void
    add(std::int64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= std::uint64_t(v >> (byte * 8)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

inline std::uint64_t
digestSchedule(const Schedule &s)
{
    ScheduleDigest d;
    d.add(s.ii);
    d.add(s.length);
    d.add(s.stageCount);
    for (const PlacedOp &op : s.ops) {
        d.add(op.cycle);
        d.add(op.cluster);
    }
    for (const CopyOp &c : s.copies) {
        d.add(c.producer);
        d.add(c.fromCluster);
        d.add(c.toCluster);
        d.add(c.busStart);
        d.add(c.readyCycle);
    }
    return d.value();
}

} // namespace vliw::testutil

#endif // WIVLIW_TESTS_UTIL_SCHEDULE_DIGEST_HH
