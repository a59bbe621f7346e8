/**
 * @file
 * Content-addressed persistent store of compiled-benchmark
 * artifacts, shared by every process pointed at the same directory
 * (`--store DIR` on wivliw_run and wivliw_serve): processes
 * mounted on one store compile each distinct configuration once
 * between them, and a restarted daemon starts warm.
 *
 * Addressing: entries are keyed by the canonical compile key
 * (engine::compileKey — the exact string the in-memory CompileCache
 * memoizes on). The filename is the FNV-1a 64 hash of that key; the
 * full key is embedded in the artifact frame and verified on load,
 * so a hash collision degrades to a store miss, never a wrong
 * artifact.
 *
 * Publication is atomic: writers encode into a uniquely named temp
 * file in the store directory and rename() it over the final name,
 * so readers only ever observe complete frames and concurrent
 * writers of the same key are harmless (last rename wins with
 * identical bytes — the codec is deterministic).
 *
 * Failure policy: the store is an accelerator, never an oracle.
 * Unreadable directories, IO errors, truncated/corrupt/stale
 * entries, version skew — every failure path is a miss (load) or a
 * silent drop (store). A bad entry is additionally unlinked on
 * load so it cannot poison every future run.
 */

#ifndef WIVLIW_DIST_COMPILE_STORE_HH
#define WIVLIW_DIST_COMPILE_STORE_HH

#include <memory>
#include <string>

#include "api/status.hh"
#include "engine/compile_cache.hh"

namespace vliw::dist {

/** Filesystem-backed PersistentCompileStore (see file comment). */
class CompileStore final : public engine::PersistentCompileStore
{
  public:
    /**
     * Open (creating if needed) the store rooted at @p dir. The
     * returned status reports whether the directory is usable; on
     * failure the store still constructs and behaves as always-miss
     * so a bad --store path degrades a run instead of killing it —
     * callers decide whether to surface the status.
     */
    explicit CompileStore(std::string dir);

    /** Usability of the store directory at construction time. */
    const api::Status &status() const { return status_; }

    const std::string &dir() const { return dir_; }

    /** Path an artifact for @p key would live at. */
    std::string entryPath(const std::string &key) const;

    std::shared_ptr<const CompiledBenchmark>
    load(const std::string &key) noexcept override;

    void store(const std::string &key,
               const CompiledBenchmark &artifact) noexcept override;

  private:
    std::string dir_;
    api::Status status_;
};

} // namespace vliw::dist

#endif // WIVLIW_DIST_COMPILE_STORE_HH
