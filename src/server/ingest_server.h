/**
 * @file
 * The networked ingest front-end for sim::Cloud: a TCP server
 * speaking the wire protocol (net/wire.h) with server-side group
 * commit.
 *
 * Thread structure:
 *
 *   accept thread   one; hands each connection a reader thread.
 *   reader threads  one per connection. Owns the receive side: does
 *                   the kHello/kHelloAck handshake, decodes frames
 *                   with the connection's StringDict (reader-only
 *                   state), and enqueues WorkItems. Never touches the
 *                   Cloud.
 *   committer       one. Sole consumer of the queue and SOLE writer
 *                   into the Cloud — this is the single-writer
 *                   contract Cloud::ingestBatchFrom requires for its
 *                   out-of-lock WAL appends. Greedily batches
 *                   consecutive kIngest items (across connections) up
 *                   to maxBatch and group-commits them with one WAL
 *                   sync, then writes each connection's kAcks of the
 *                   batch in one send. Because the
 *                   queue is FIFO and the committer is alone, every
 *                   reply on one connection is sent in that
 *                   connection's request order (acks always precede
 *                   the kCycleDone that follows them).
 *
 * The committer writes every non-handshake reply frame; the reader
 * writes only kHelloAck (before it enqueues anything) and the kBusy
 * backpressure advisory. A per-connection write mutex keeps those two
 * writers' frames from interleaving on the socket.
 *
 * Protocol errors (corrupt frame, unknown type, version mismatch)
 * close that connection and count in stats().protocolErrors; they
 * never take the server down.
 *
 * Crash–restart: crash injection on the fronted cloud may be armed.
 * When a committer-side persist::CrashInjected fires, the server
 * treats it as its process death: the listener stops, every
 * connection is severed, and crashed()/crashSite() report the site.
 * A harness then rebuilds the Cloud from the same state dir (WAL
 * replay + snapshot re-arms the dedup windows) and starts a fresh
 * IngestServer over it; reconnecting clients handshake with
 * `wantResume` and receive the recovered per-device high-water seqs
 * (from a live Cloud::dedupSnapshot()) in kHelloAck, so retransmits
 * land exactly once. The single-writer contract holds across the
 * restart: the old committer died before the new Cloud was built, so
 * at every moment at most one committer writes the state dir.
 *
 * Disk faults: a persist::DiskFault firing in the committer means the
 * disk under the WAL failed and the durability layer's fsync gate is
 * latched — every further commit would throw the same fault. Unlike a
 * crash, the process stays up, in a DEGRADED mode: the committer
 * keeps draining the queue but never acks, sending one kBusy advisory
 * per connection instead, and counts the episode in
 * stats().diskFaults / `server.disk_faults`. Clients treat the
 * unacked ingests as lost and retransmit after the harness clears the
 * fault and restarts the server over the same state directory;
 * diskFaulted()/waitDiskFaulted() are the harness's signal.
 *
 * Backpressure: with ServerConfig::maxQueue set, a reader whose
 * enqueue would exceed the bound sends one kBusy advisory and then
 * blocks until the committer frees space — it stops draining its
 * socket, so TCP flow control pushes back to the senders. The queue
 * depth is exported as the `server.queue_depth` gauge.
 *
 * Latency attribution: every kIngest's path through the server is
 * decomposed into stage spans — `server.read.decode` (reader),
 * `server.queue_wait` (enqueue → committer dequeue), `server.encode`
 * (wire → sim message conversion), `persist.wal.sync` (the group
 * commit incl. the WAL sync), `server.ack` (reply write; one interval
 * per connection per batch, the connections' intervals tiling the
 * ack phase) — recorded
 * per item into obs histograms, parented to the trace context the
 * frame carried (net/wire.h kExtTraceContext) when present. Batch
 * stages (encode, commit) are observed once per item at the batch's
 * interval: every item in a group commit waits for the whole batch,
 * so per-item stage sums approximate that item's end-to-end latency.
 */
#ifndef NAZAR_SERVER_INGEST_SERVER_H
#define NAZAR_SERVER_INGEST_SERVER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.h"
#include "net/wire.h"
#include "persist/crash_point.h"
#include "persist/env.h"
#include "sim/cloud.h"

namespace nazar::server {

struct ServerConfig
{
    /** Listen port; 0 binds an ephemeral port (see port()). */
    uint16_t port = 0;
    /**
     * Largest group-commit batch the committer will assemble: one
     * Cloud::ingestBatchFrom call, so one WAL sync, per batch. 1 =
     * one sync per record, the configuration group commit is
     * benchmarked against.
     */
    size_t maxBatch = 256;
    /**
     * Committer queue bound (0 = unbounded, the historical
     * behaviour). When full, readers advise kBusy once and stop
     * draining their sockets until space frees up.
     */
    size_t maxQueue = 0;
    /**
     * Per-connection receive deadline in ms (0 = none). A connection
     * that stays silent past the deadline is reaped (its reader
     * exits), so a wedged peer cannot pin a reader thread forever.
     */
    int readTimeoutMs = 0;
    /**
     * Test hook: sleep this long before each committer batch, making
     * the committer deliberately slow so backpressure tests can fill
     * the queue (0 = off).
     */
    int commitDelayUs = 0;
};

struct ServerStats
{
    uint64_t connections = 0;
    uint64_t ingestMessages = 0;
    uint64_t batches = 0;       ///< Committer batches (size >= 1).
    uint64_t acksSent = 0;
    /** Socket writes that carried acks: at most one per connection
     *  per batch (a connection's acks of a batch share one send). */
    uint64_t ackWrites = 0;
    uint64_t cycles = 0;
    uint64_t flushes = 0;
    uint64_t protocolErrors = 0;
    uint64_t busySent = 0;     ///< kBusy advisories written.
    uint64_t readTimeouts = 0; ///< Connections reaped by the deadline.
    uint64_t diskFaults = 0;   ///< Committer-side latched disk faults.
};

/**
 * TCP ingest server over one Cloud. start() spawns the threads;
 * stop() (or the destructor) shuts them down and closes every socket.
 */
class IngestServer
{
  public:
    /**
     * @param cloud The cloud this server fronts. Must outlive the
     *              server; the committer thread is its only writer
     *              while the server runs. Crash injection may be
     *              armed: a CrashInjected firing in the committer
     *              plays the part of the server process dying — see
     *              crashed()/waitCrashed() and the crash–restart
     *              notes above.
     */
    explicit IngestServer(sim::Cloud &cloud, ServerConfig config = {});
    ~IngestServer();

    IngestServer(const IngestServer &) = delete;
    IngestServer &operator=(const IngestServer &) = delete;

    /** Bind, listen and spawn the threads. Throws on bind failure. */
    void start();

    /** Stop accepting, wake every thread, join them, close sockets.
     *  Idempotent. Queued work is completed before shutdown. */
    void stop();

    /** The bound port (valid after start()). */
    uint16_t port() const { return listener_.port(); }

    bool running() const { return running_; }

    /** True once a committer-side CrashInjected killed the server. */
    bool crashed() const;

    /** Block up to @p timeout for a committer crash; true if it came. */
    bool waitCrashed(std::chrono::milliseconds timeout);

    /** The crash site that fired (empty when !crashed()). */
    std::string crashSite() const;

    /** True once a committer-side DiskFault latched degraded mode. */
    bool diskFaulted() const;

    /** Block up to @p timeout for a disk fault; true if one latched. */
    bool waitDiskFaulted(std::chrono::milliseconds timeout);

    /** The latched fault's Env site (empty when !diskFaulted()). */
    std::string diskFaultSite() const;

    ServerStats stats() const;

  private:
    /** One accepted connection, shared between its reader thread and
     *  WorkItems in flight (kept alive until the last reply is sent). */
    struct Conn
    {
        net::TcpStream stream;
        /** Decode-side interning table; reader thread only. */
        net::StringDict dict;
        uint64_t id = 0;
        std::thread reader;
        /** Serializes socket writes: committer replies vs the
         *  reader's kHelloAck/kBusy frames. */
        std::mutex writeMutex;
        /** kBusy already sent for the current full-queue episode;
         *  reader thread only. */
        bool busyAdvised = false;
        /** kBusy already sent for the degraded (disk-faulted) mode;
         *  committer thread only. */
        bool diskBusyAdvised = false;
        /** The committer batch whose acks ackGroups_[ackGroup] holds
         *  for this connection; committer thread only. */
        uint64_t ackBatch = 0;
        size_t ackGroup = 0;
    };

    /** One connection's acks of one batch: the frames, sent in one
     *  write, and the interval its `server.ack` spans record. */
    struct AckGroup
    {
        /** Set per batch; the batch's WorkItems keep it alive. */
        Conn *conn = nullptr;
        std::string frames; ///< Cleared per batch, capacity kept.
        std::chrono::steady_clock::time_point start, end;
    };

    struct WorkItem
    {
        enum class Kind : uint8_t { kIngest, kCycle, kFlush, kBye };
        Kind kind = Kind::kIngest;
        std::shared_ptr<Conn> conn;
        net::WireIngest ingest;     ///< kIngest only.
        std::string cleanPatchText; ///< kCycle only.
        /** When the reader enqueued it; the committer's dequeue time
         *  minus this is the item's `server.queue_wait` stage. */
        std::chrono::steady_clock::time_point enqueueTime;
    };

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);
    void committerLoop();

    /** Group-commit one batch, then ack every item with one write
     *  per connection. */
    void commitBatch(std::vector<WorkItem> &batch);

    /** Send @p batch's acks: each connection's frames, in queue order,
     *  in one write under its writeMutex. */
    void sendAcks(const std::vector<WorkItem> &batch,
                  const std::vector<bool> &accepted);
    void handleCycle(const WorkItem &item);
    void handleFlush(const WorkItem &item);
    void handleBye(const WorkItem &item);

    /**
     * Bounded when maxQueue > 0: blocks until space or shutdown.
     * False means the server is shutting down (or crashed) and the
     * item was dropped — the reader should exit.
     */
    bool enqueue(WorkItem item);

    /** The committer's CrashInjected path: record the site, stop the
     *  listener, sever every connection, wake all waiters. */
    void onCommitterCrash(const persist::CrashInjected &e);

    /** The committer's DiskFault path: latch degraded mode (the
     *  process stays up, commits stop, acks stop). */
    void onDiskFault(const persist::DiskFault &e);

    /** Degraded-mode reply for an item: one kBusy per connection. */
    void adviseDiskBusy(const std::shared_ptr<Conn> &conn);

    sim::Cloud &cloud_;
    ServerConfig config_;
    net::TcpListener listener_;
    std::thread acceptThread_;
    std::thread committerThread_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    /** Signals queue space to readers blocked by maxQueue. */
    std::condition_variable queueSpaceCv_;
    std::deque<WorkItem> queue_;
    bool stopping_ = false;
    /** Set on stop() and on a committer crash: enqueue refuses new
     *  work and blocked readers bail out. Guarded by queueMutex_. */
    bool shuttingDown_ = false;

    mutable std::mutex crashMutex_;
    std::condition_variable crashCv_;
    bool crashed_ = false;
    std::string crashSite_;
    /** Degraded mode: a DiskFault latched (guarded by crashMutex_). */
    bool diskFaulted_ = false;
    std::string diskFaultSite_;

    mutable std::mutex connMutex_;
    std::vector<std::shared_ptr<Conn>> conns_;
    uint64_t nextConnId_ = 1;

    /** Committer-only ack scratch, reused batch after batch. */
    std::vector<AckGroup> ackGroups_;
    uint64_t ackBatches_ = 0;

    mutable std::mutex statsMutex_;
    ServerStats stats_;
    bool running_ = false;
};

} // namespace nazar::server

#endif // NAZAR_SERVER_INGEST_SERVER_H
