/**
 * @file
 * FR-FCFS (first-ready, first-come-first-served) scheduling policy
 * (Table II: out-of-order memory controller).
 *
 * Row hits are serviced first (oldest hit wins); otherwise the oldest
 * request drives precharge/activate of its bank.
 */

#ifndef TENOC_DRAM_FRFCFS_HH
#define TENOC_DRAM_FRFCFS_HH

#include <cstdint>
#include <optional>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/gddr3.hh"

namespace tenoc
{

/** One request in the controller queue. */
struct DramRequest
{
    Addr localAddr = 0;      ///< channel-local address
    bool write = false;
    /** Carried through to completion for the reply: the node that
     *  asked and the global line address it asked for. */
    NodeId requester = 0;
    Addr addr = 0;
    Cycle arrival = 0;       ///< queue entry time (mem cycles)
    DramCoord coord;         ///< filled by the channel on push
    bool openedRow = false;  ///< an ACTIVATE was issued for this request
};

/** Scheduling-decision statistics (owned by the channel). */
struct FrFcfsStats
{
    /** Cycles on which a ready row hit was found, whether or not the
     *  data bus then let its CAS issue; the queue head counts too. */
    Counter rowHitPicks{"row_hit_picks"};
    /** Queue index of the row hit found on those cycles (0 when it is
     *  the oldest request). */
    Accumulator reorderDepth{"reorder_depth"};
    /** Cycles CAS issue was gated by a full read-out buffer. */
    Counter blockedByReturnBuffer{"blocked_by_return_buffer"};
};

/** One memory cycle's FR-FCFS decision. */
struct FrFcfsPick
{
    enum class Command : std::uint8_t { NONE, CAS, PRECHARGE, ACTIVATE };

    Command command = Command::NONE;
    /** Queue index of the request the command serves (CAS) or whose
     *  bank it prepares (PRECHARGE, ACTIVATE). */
    std::size_t index = 0;
    /** Oldest ready row hit, also when the data bus blocks its CAS. */
    std::optional<std::size_t> rowHit;
    /** With no command: the first cycle at which the pick could differ
     *  if the queue and the read-out buffer stay as they are — a
     *  command becomes legal or an older row hit becomes ready
     *  (INVALID_CYCLE if neither can); 0 otherwise. */
    Cycle idleUntil = 0;
};

/** FR-FCFS selection over a channel's request queue. */
class FrFcfsScheduler
{
  public:
    /**
     * Decides what `ch` issues at `now` without changing anything:
     * the oldest ready row hit whose data burst fits on the bus (CAS
     * is gated on read-out buffer space, so a blocked reply path
     * stalls the DRAM pipeline, Fig. 11); otherwise a precharge or
     * activate steered by each bank's oldest request, oldest first.
     * Reads the channel's per-bank masks, never walks the queue.
     */
    static FrFcfsPick pick(const class DramChannel &ch, Cycle now);
};

} // namespace tenoc

#endif // TENOC_DRAM_FRFCFS_HH
