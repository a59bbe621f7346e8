/**
 * @file
 * Named fault-injection points for exercising failure paths on
 * purpose (robustness tests, CI fault drills) instead of only by
 * killing processes.
 *
 * Code under test calls `faults::fire("store.load")` at a seam it
 * wants to be breakable; production cost is one relaxed atomic
 * load when nothing is armed. Tests (or an operator, via the
 * `WIVLIW_FAULTS` environment variable or the daemon's `faults`
 * op) arm points with a spec string:
 *
 *   point=action[:ms][@every][*limit][%percent][~seed]
 *
 * joined by `,` or `;`. Actions:
 *
 *   delay:MS    sleep MS milliseconds inside fire(), then proceed
 *   error       the call site fails its operation (soft error)
 *   disconnect  the call site drops its connection / stream
 *   corrupt     the call site corrupts the artifact it handles
 *
 * Modifiers make firing selective but always DETERMINISTIC:
 *   @N  fire on every Nth occurrence (Nth, 2Nth, ...)
 *   *C  stop after C fires
 *   %P  fire on P percent of occurrences, decided by a pure hash
 *       of (seed, point, occurrence-index) — the same seed and
 *       call sequence always yields the same fault pattern
 *   ~S  seed for %P (default 0, or WIVLIW_FAULT_SEED)
 *
 * Example: WIVLIW_FAULTS='store.load=corrupt*1,client.recv=disconnect%10~42'
 *
 * Fault points alter TIMING and AVAILABILITY, never result values:
 * every armed failure lands on a path the system already defends
 * (store corruption degrades to a recompile, transport loss fails
 * the client call, delays only slow things down).
 *
 * Well-known points: engine.cell (delay before a cell runs),
 * store.load, store.store (persistent compile store), serve.submit
 * (daemon request dispatch), client.send, client.recv (NDJSON
 * client transport).
 */

#ifndef WIVLIW_SUPPORT_FAULTPOINTS_HH
#define WIVLIW_SUPPORT_FAULTPOINTS_HH

#include <cstdint>
#include <string>

namespace vliw::faults {

enum class Action
{
    None,
    Delay,
    Error,
    Disconnect,
    Corrupt,
};

const char *actionName(Action action);

/** Outcome of one fire(): what the call site should do. */
struct Hit
{
    Action action = Action::None;
    /** True when an armed action (other than a pure delay, which
     *  fire() already served by sleeping) wants the call site to
     *  fail/disconnect/corrupt. */
    bool fired() const
    {
        return action != Action::None && action != Action::Delay;
    }
};

/**
 * Evaluate the named point. Delay actions sleep here and are
 * reported back informationally; Error/Disconnect/Corrupt are the
 * call site's job. Thread-safe; near-free when nothing is armed.
 */
Hit fire(const char *point);

/**
 * Parse @p spec and arm its entries (additive over what is already
 * armed; re-arming a point replaces it). Empty spec is a no-op.
 * Returns false and explains in *error (when given) on a malformed
 * spec, leaving previously armed points untouched.
 */
bool arm(const std::string &spec, std::string *error = nullptr);

/** Disarm every point and reset all counters. */
void disarm();

/** True when at least one point is armed. */
bool anyArmed();

/** One line per armed point: "name=action ... occurrences=N fires=M". */
std::string describe();

/** Times the named point actually fired (0 when never armed). */
std::uint64_t fireCount(const std::string &point);

} // namespace vliw::faults

#endif // WIVLIW_SUPPORT_FAULTPOINTS_HH
