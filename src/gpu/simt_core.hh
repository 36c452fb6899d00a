/**
 * @file
 * SIMT compute core model (Fig. 4 of the paper).
 *
 * 8-wide SIMD pipeline executing 32-thread warps over four core
 * cycles; a dispatch queue of up to 32 ready warps; memory divergence
 * detection / coalescing; a profile-locality L1 data cache with a
 * 64-entry MSHR table.  Global loads
 * that miss L1 send read requests into the NoC and block their warp
 * until the read reply returns; dirty evictions send write requests
 * (the paper's core->MC traffic is read requests plus less-frequent
 * writes, and MC->core traffic is read replies only).
 */

#ifndef TENOC_GPU_SIMT_CORE_HH
#define TENOC_GPU_SIMT_CORE_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "gpu/inst_source.hh"
#include "gpu/kernel_profile.hh"
#include "gpu/warp.hh"

namespace tenoc
{

/**
 * The core's window into the memory system; implemented by the Chip,
 * which turns these into NoC packets with proper interconnect-domain
 * timestamps and MC routing by address interleaving.
 */
class CoreMemPort
{
  public:
    virtual ~CoreMemPort() = default;
    /** @return how many more request packets can be queued now. */
    virtual unsigned requestSpace() const = 0;
    /** Sends a read request for one line. */
    virtual void sendRead(Addr line) = 0;
    /** Sends a 64-byte write (dirty eviction / store flush). */
    virtual void sendWrite(Addr line) = 0;
};

/** SIMT core configuration (Table II). */
struct SimtCoreParams
{
    unsigned warpSize = 32;
    unsigned simdWidth = 8;
    unsigned maxWarps = 32;      ///< 1024 threads / 32
    unsigned mshrEntries = 64;
    unsigned lineBytes = 64;
    /** Core cycles per issue slot: warpSize / simdWidth. */
    unsigned
    issueInterval() const
    {
        return warpSize / simdWidth;
    }
};

class SimtCore
{
  public:
    /**
     * @param id core index (address-space base derives from it)
     * @param params core configuration
     * @param profile kernel profile (instruction statistics, cache
     *        locality, MLP)
     * @param port memory system access
     * @param seed deterministic RNG seed
     */
    SimtCore(unsigned id, const SimtCoreParams &params,
             const KernelProfile &profile, CoreMemPort &port,
             std::uint64_t seed);

    /** Advances one core clock. */
    void cycle(Cycle core_cycle);

    /**
     * Starts the next kernel launch: re-arms every warp.  The address
     * streams keep advancing (fresh data per launch); all MSHRs must
     * have drained (global launch barrier).
     */
    void restart();

    /** Read reply arrived for `line`; wakes merged waiter warps. */
    void onReadReply(Addr line);

    /** @return true when every warp has retired. */
    bool done() const { return warps_done_ == warps_.size(); }

    // --- stats ---
    std::uint64_t scalarInsts() const { return scalar_insts_; }
    std::uint64_t warpInstsIssued() const { return warp_insts_; }
    std::uint64_t stallSlots() const { return stall_slots_; }
    std::uint64_t memInsts() const { return mem_insts_; }
    std::uint64_t readsSent() const { return reads_sent_; }
    std::uint64_t writesSent() const { return writes_sent_; }
    Cycle finishCycle() const { return finish_cycle_; }
    const Cache &l1() const { return l1_; }
    const MshrTable &mshrs() const { return mshrs_; }

    /** Registers the core's statistics under `group`. */
    void registerStats(StatGroup &group) const;

    /** Serializes warps, the L1, MSHRs, RNG, and the inst source. */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(); warp count must match. */
    void restore(SnapshotReader &r);

    /**
     * With `on`, every issue slot skipped by the stall memo checks
     * that no warp could have issued, and is fatal if one could.
     */
    void setValidate(bool on) { validate_ = on; }

  private:
    /** Attempts to issue one warp instruction; @return success. */
    bool issueSlot(Cycle core_cycle);

    /** @return true if the decoded memory instruction of `warp` fits
     *  the request port and the MSHRs now. */
    bool memInstFits(const Warp &warp) const;

    /** Executes a memory instruction for `warp`; @return success. */
    bool executeMemInst(Warp &warp);

    /** Fatal if a warp could issue in a slot the stall memo skipped. */
    void auditSkippedSlot(Cycle core_cycle) const;

    unsigned id_;
    SimtCoreParams params_;
    const KernelProfile &profile_;
    CoreMemPort &port_;
    Rng rng_;

    Cache l1_;
    MshrTable mshrs_;
    ProfileInstSource source_;

    std::vector<Warp> warps_;
    unsigned rr_warp_ = 0;
    unsigned slot_countdown_ = 0;
    std::size_t warps_done_ = 0;

    std::uint64_t scalar_insts_ = 0;
    std::uint64_t warp_insts_ = 0;
    std::uint64_t stall_slots_ = 0;
    std::uint64_t mem_insts_ = 0;
    std::uint64_t reads_sent_ = 0;
    std::uint64_t writes_sent_ = 0;
    Cycle finish_cycle_ = 0;

    /**
     * Stall memo, derived and never serialized.  A slot that issues
     * nothing arms it with the port's request space; while it is
     * armed, slots that see the same space are stalls without a warp
     * scan.  A slot that issues, a read reply, restart() and restore()
     * disarm it: they are the only writers of the warp and MSHR state
     * the scan reads.
     */
    bool stall_memo_ = false;
    unsigned stall_space_ = 0;
    bool validate_ = false;
};

} // namespace tenoc

#endif // TENOC_GPU_SIMT_CORE_HH
