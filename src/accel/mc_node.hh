/**
 * @file
 * Memory controller node (Fig. 5 of the paper): a shared L2 cache
 * bank, an FR-FCFS GDDR3 channel, and the reply-injection path whose
 * stalls the paper measures in Fig. 11.
 *
 * Request flow: NoC -> bounded input queue -> L2 bank (one lookup per
 * interconnect cycle) -> on miss, GDDR3 channel (memory clock) ->
 * read replies re-enter the NoC through the NI, one packet at a time,
 * limited by the MC router's injection terminal bandwidth.
 */

#ifndef TENOC_ACCEL_MC_NODE_HH
#define TENOC_ACCEL_MC_NODE_HH

#include <deque>

#include "cache/cache.hh"
#include "dram/dram_channel.hh"
#include "gpu/kernel_profile.hh"
#include "noc/network.hh"

namespace tenoc
{

/** MC node configuration. */
struct McNodeParams
{
    unsigned inputQueueCap = 8;   ///< packets buffered before the L2
    unsigned l2HitLatency = 8;    ///< icnt cycles from lookup to reply
    unsigned replyQueueSoftCap = 4; ///< gate on DRAM read-out
    /** Reply packets the MC keeps queued in its NI: kept shallow so a
     *  blocked reply network stalls the DRAM read-out quickly (the
     *  feedback loop behind Fig. 11). */
    unsigned niReplyDepth = 2;
    /** NI injection queue capacity (set by the chip from the network
     *  configuration; used to convert injectSpace into occupancy). */
    unsigned niQueueCap = 8;
    DramChannelParams dram;
    CacheParams l2; ///< profile-mode hit rate set per workload
    unsigned numChannels = 8;     ///< chip-wide MC count (interleaving)
    unsigned interleaveBytes = 256;
};

class McNode : public PacketSink
{
  public:
    /**
     * @param node NoC node id of this MC
     * @param index MC index (0-based) for stats
     * @param params configuration
     * @param net network used to inject replies
     * @param seed RNG seed for the profile-mode L2
     */
    McNode(NodeId node, unsigned index, const McNodeParams &params,
           Network &net, std::uint64_t seed);

    // PacketSink (requests arriving from cores)
    bool tryReserve(const Packet &pkt) override;
    void deliver(PacketPtr pkt, Cycle now) override;

    /** Interconnect-clock work: L2 pipeline and reply injection. */
    void icntCycle(Cycle icnt_now);

    /** Memory-clock work: DRAM scheduling and read-out. */
    void memCycle(Cycle mem_now);

    /** @return true when no request or reply is in flight here. */
    bool idle() const;

    // --- stats ---
    /** Cycles the reply path was blocked by the NoC (Fig. 11). */
    std::uint64_t stallCycles() const { return stall_cycles_; }
    std::uint64_t icntCycles() const { return icnt_cycles_; }
    double
    stallFraction() const
    {
        return icnt_cycles_
            ? static_cast<double>(stall_cycles_) / icnt_cycles_ : 0.0;
    }
    const DramChannel &dram() const { return dram_; }
    const Cache &l2() const { return l2_; }
    std::uint64_t requestsServed() const { return requests_served_; }

    /** Registers the MC's statistics under `group` (the DRAM channel
     *  registers its own under a child group). */
    void registerStats(StatGroup &group) const;

    /** Serializes queues, L2 and DRAM. */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(). */
    void restore(SnapshotReader &r);

    /** Audits the DRAM channel's masks and skipped cycles (see
     *  DramChannel::setValidate). */
    void setValidate(bool on) { dram_.setValidate(on, index_); }

  private:
    void injectReply(PacketPtr reply, Cycle icnt_now);

    /** Queues an L2 miss at the DRAM channel; the request carries
     *  what its reply needs. */
    void pushDram(const Packet &pkt);

    NodeId node_;
    unsigned index_;
    McNodeParams params_;
    Network &net_;
    Cache l2_;
    DramChannel dram_;

    unsigned reserved_ = 0; ///< slots promised via tryReserve
    std::deque<PacketPtr> input_queue_;

    /** L2-hit replies waiting out the hit latency. */
    struct DelayedReply
    {
        PacketPtr pkt;
        Cycle readyAt;
    };
    std::deque<DelayedReply> l2_pipe_;

    /** Head-of-line request stalled waiting for DRAM queue space. */
    PacketPtr dram_wait_;

    /** Replies ready to enter the NoC. */
    std::deque<PacketPtr> reply_queue_;

    std::uint64_t stall_cycles_ = 0;
    std::uint64_t icnt_cycles_ = 0;
    std::uint64_t requests_served_ = 0;
    Cycle mem_now_ = 0;
};

} // namespace tenoc

#endif // TENOC_ACCEL_MC_NODE_HH
