/**
 * @file
 * Instruction source for the SIMT core.
 *
 * A core consumes decoded warp instructions drawn from a statistical
 * KernelProfile (the Table I synthetic suite; DESIGN.md
 * "Substitutions").
 */

#ifndef TENOC_GPU_INST_SOURCE_HH
#define TENOC_GPU_INST_SOURCE_HH

#include <vector>

#include "common/rng.hh"
#include "gpu/coalescer.hh"
#include "gpu/kernel_profile.hh"
#include "gpu/warp.hh"

namespace tenoc
{

class SnapshotWriter;
class SnapshotReader;

/** Statistical instruction source driven by a KernelProfile. */
class ProfileInstSource
{
  public:
    /**
     * @param profile kernel description (kept by reference)
     * @param core_id core index (address-space base derives from it)
     * @param num_warps resident warps after clamping
     * @param line_bytes cache line size
     * @param warp_size threads per warp (clamps coalescing)
     */
    ProfileInstSource(const KernelProfile &profile, unsigned core_id,
                      unsigned num_warps, unsigned line_bytes,
                      unsigned warp_size);

    /** Number of resident warps. */
    unsigned numWarps() const;

    /** Instructions warp `warp` executes before retiring. */
    std::uint64_t warpLength(unsigned warp) const;

    /**
     * Decodes warp `warp`'s next instruction into `out` (valid is set
     * by the caller).
     */
    void decode(unsigned warp, Warp::PendingInst &out, Rng &rng);

    /** Serializes the address-stream positions. */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(). */
    void restore(SnapshotReader &r);

  private:
    const KernelProfile &profile_;
    Coalescer coalescer_;
    std::vector<AddressStream> streams_;
};

} // namespace tenoc

#endif // TENOC_GPU_INST_SOURCE_HH
