/**
 * @file
 * Crash-point injection for the durability layer.
 *
 * The WAL and snapshot writers call into a CrashInjector at every
 * durable-write boundary ("site"). The injector counts hits in the
 * order the process reaches them; arming it at hit N makes the Nth
 * site throw CrashInjected after leaving realistic on-disk wreckage
 * (a torn record, an orphaned snapshot.tmp, a renamed-but-untruncated
 * WAL). Tests sweep N over every hit of a scenario, reopen the state
 * directory, and assert recovery matches a never-crashed oracle.
 *
 * Determinism contract (mirrors net::FaultConfig):
 *  - A disarmed injector (crashAtHit == 0) only counts; it draws no
 *    randomness and changes no behaviour, so persisted runs are
 *    bit-identical with or without the counting.
 *  - Sites are hit in a fixed order for a fixed operation sequence,
 *    so (scenario, hit index) fully reproduces a crash. "Seeded"
 *    injection is just a seed-derived hit index — no RNG stream is
 *    consumed inside the durability layer itself.
 */
#ifndef NAZAR_PERSIST_CRASH_POINT_H
#define NAZAR_PERSIST_CRASH_POINT_H

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace nazar::persist {

/** Thrown at an armed crash site; the "process death" of the cloud. */
class CrashInjected : public std::runtime_error
{
  public:
    CrashInjected(std::string site, uint64_t hit)
        : std::runtime_error("injected crash at site '" + site +
                             "' (hit " + std::to_string(hit) + ")"),
          site_(std::move(site)), hit_(hit)
    {}

    /** The site that fired, e.g. "wal.append.partial". */
    const std::string &site() const { return site_; }

    /** 1-based global hit index at which the crash fired. */
    uint64_t hit() const { return hit_; }

  private:
    std::string site_;
    uint64_t hit_;
};

/** Counted crash-site registry; one per persistence instance. */
class CrashInjector
{
  public:
    CrashInjector() = default;

    /** Arm the injector: the @p hit-th site reached fires (0 = never). */
    void
    armAtHit(uint64_t hit)
    {
        std::lock_guard<std::mutex> lk(mu_);
        armed_ = hit;
    }

    /**
     * Register one site hit. Returns true when this hit is the armed
     * one — the caller then performs its site-specific partial write
     * and throws CrashInjected (or calls check(), which throws
     * directly for sites with no partial-write behaviour). Only the
     * count is kept: the site name travels in the caller's
     * CrashInjected, and a per-hit record would grow for as long as
     * the process runs.
     */
    bool
    fires(const char * /*site*/)
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++hits_;
        return armed_ != 0 && hits_ == armed_;
    }

    /** fires() + throw for sites where the crash leaves no torn state. */
    void
    check(const char *site)
    {
        if (fires(site))
            throw CrashInjected(site, hitCount());
    }

    /** Total sites hit so far (sweep bound for exhaustive tests). */
    uint64_t
    hitCount() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return hits_;
    }

    /**
     * Seed-derived hit index in [1, total_hits] — the "random but
     * seeded" crash point the CI smoke uses. Pure arithmetic
     * (splitmix-style mix), no RNG stream.
     */
    static uint64_t
    seededHit(uint64_t seed, uint64_t total_hits)
    {
        uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return total_hits == 0 ? 0 : 1 + z % total_hits;
    }

  private:
    mutable std::mutex mu_;
    uint64_t hits_ = 0;
    uint64_t armed_ = 0;
};

} // namespace nazar::persist

#endif // NAZAR_PERSIST_CRASH_POINT_H
