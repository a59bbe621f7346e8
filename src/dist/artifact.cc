#include "artifact.hh"

#include "core/versioning.hh"
#include "support/blob.hh"

namespace vliw::dist {

namespace {

// ---- encoding --------------------------------------------------------

void
encodeMemInfo(blob::Writer &w, const MemAccessInfo &info)
{
    w.boolean(info.isStore);
    w.i32(info.granularity);
    w.i32(info.symbol);
    w.i64(info.offset);
    w.i64(info.stride);
    w.boolean(info.indirect);
    w.i64(info.indexRange);
    w.i64(info.invocationStride);
    w.boolean(info.attractable);
    w.i32(info.unrollFactor);
    w.i32(info.unrollPhase);
}

void
encodeDdg(blob::Writer &w, const Ddg &ddg)
{
    w.u32(std::uint32_t(ddg.numNodes()));
    for (NodeId v = 0; v < ddg.numNodes(); ++v) {
        const DdgNode &node = ddg.node(v);
        w.u8(std::uint8_t(node.kind));
        w.i32(node.fixedLatency);
        w.str(node.name);
        if (isMemOp(node.kind))
            encodeMemInfo(w, ddg.memInfo(v));
    }
    w.u32(std::uint32_t(ddg.numEdges()));
    for (const DdgEdge &e : ddg.edges()) {
        w.i32(e.src);
        w.i32(e.dst);
        w.u8(std::uint8_t(e.kind));
        w.i32(e.distance);
    }
}

void
encodeProfile(blob::Writer &w, const ProfileMap &prof)
{
    w.u32(std::uint32_t(prof.size()));
    for (NodeId v = 0; v < prof.size(); ++v) {
        const MemProfile &p = prof.at(v);
        w.f64(p.hitRate);
        w.u32(std::uint32_t(p.clusterCounts.size()));
        for (const std::uint64_t c : p.clusterCounts)
            w.u64(c);
        w.i32(p.preferredCluster);
        w.f64(p.distribution);
        w.f64(p.localRatio);
        w.u64(p.executions);
    }
}

void
encodeLatency(blob::Writer &w, const Ddg &ddg,
              const LatencyAssignment &lat)
{
    w.u32(std::uint32_t(ddg.numNodes()));
    for (NodeId v = 0; v < ddg.numNodes(); ++v)
        w.i32(lat.latencies(v));
    w.u32(std::uint32_t(lat.classOf.size()));
    for (const LatClass c : lat.classOf)
        w.i32(c);
    w.i32(lat.miiTarget);
    w.u32(std::uint32_t(lat.trace.size()));
    for (const LatencyStep &s : lat.trace) {
        w.i32(s.node);
        w.i32(s.fromClass);
        w.i32(s.toClass);
        w.i32(s.iiBefore);
        w.i32(s.iiAfter);
        w.f64(s.stallBefore);
        w.f64(s.stallAfter);
        w.f64(s.benefit);
    }
}

void
encodeSchedule(blob::Writer &w, const ScheduleOutcome &out)
{
    const Schedule &s = out.schedule;
    w.i32(s.ii);
    w.i32(s.length);
    w.i32(s.stageCount);
    w.u32(std::uint32_t(s.ops.size()));
    for (const PlacedOp &op : s.ops) {
        w.i32(op.cycle);
        w.i32(op.cluster);
    }
    w.u32(std::uint32_t(s.copies.size()));
    for (const CopyOp &c : s.copies) {
        w.i32(c.producer);
        w.i32(c.fromCluster);
        w.i32(c.toCluster);
        w.i32(c.busStart);
        w.i32(c.readyCycle);
    }
    w.i32(out.attempts);
    w.u32(std::uint32_t(out.chainClusters.size()));
    for (const int c : out.chainClusters)
        w.i32(c);
}

void
encodeLoop(blob::Writer &w, const CompiledLoop &loop)
{
    w.str(loop.name);
    encodeDdg(w, loop.ddg);
    encodeProfile(w, loop.profile);
    encodeLatency(w, loop.ddg, loop.latency);
    encodeSchedule(w, loop.sched);
    w.i32(loop.unrollFactor);
    w.u8(std::uint8_t(loop.policyChosen));
    w.i32(loop.mii);
    w.i64(loop.kernelIterations);
    w.i32(loop.invocations);
    // Format v2: the exact solver's verdict rides with the
    // artifact, so cached/served compiles report it like fresh
    // ones. Empty on heuristic-only compiles.
    w.str(loop.solverOutcome);
    w.i32(loop.solverLowerBound);
    w.u64(loop.solverNodes);
}

// ---- decoding --------------------------------------------------------

bool
decodeMemInfo(blob::Reader &r, MemAccessInfo &info)
{
    info.isStore = r.boolean();
    info.granularity = r.i32();
    info.symbol = r.i32();
    info.offset = r.i64();
    info.stride = r.i64();
    info.indirect = r.boolean();
    info.indexRange = r.i64();
    info.invocationStride = r.i64();
    info.attractable = r.boolean();
    info.unrollFactor = r.i32();
    info.unrollPhase = r.i32();
    return r.ok();
}

bool
decodeDdg(blob::Reader &r, Ddg &ddg)
{
    const std::uint32_t numNodes = r.u32();
    if (!r.fits(numNodes, 10))
        return false;
    for (std::uint32_t v = 0; v < numNodes; ++v) {
        const std::uint8_t kindByte = r.u8();
        if (r.ok() && kindByte > std::uint8_t(OpKind::Copy)) {
            r.fail("bad op kind " + std::to_string(int(kindByte)));
            return false;
        }
        const OpKind kind = OpKind(kindByte);
        const int fixedLatency = r.i32();
        std::string name = r.str();
        if (!r.ok())
            return false;
        if (isMemOp(kind)) {
            MemAccessInfo info;
            if (!decodeMemInfo(r, info))
                return false;
            // addMemNode asserts this consistency; turn a corrupt
            // byte into a decode error instead of a panic.
            if (info.isStore != (kind == OpKind::Store)) {
                r.fail("mem node " + std::to_string(v) +
                       " isStore disagrees with its op kind");
                return false;
            }
            ddg.addMemNode(kind, info, std::move(name));
        } else {
            ddg.addNode(kind, std::move(name), 1);
        }
        // Assign the exact stored values: addNode substitutes
        // defaults for empty names / non-positive latencies, and a
        // bit-exact round-trip may not rely on those substitutions
        // matching the original builder's.
        ddg.node(NodeId(v)).fixedLatency = fixedLatency;
    }
    const std::uint32_t numEdges = r.u32();
    if (!r.fits(numEdges, 13))
        return false;
    for (std::uint32_t e = 0; e < numEdges; ++e) {
        const NodeId src = r.i32();
        const NodeId dst = r.i32();
        const std::uint8_t kindByte = r.u8();
        const int distance = r.i32();
        if (!r.ok())
            return false;
        if (src < 0 || src >= ddg.numNodes() || dst < 0 ||
            dst >= ddg.numNodes()) {
            r.fail("edge " + std::to_string(e) +
                   " references a node out of range");
            return false;
        }
        if (kindByte > std::uint8_t(DepKind::MemOut)) {
            r.fail("bad dep kind " + std::to_string(int(kindByte)));
            return false;
        }
        ddg.addEdge(src, dst, DepKind(kindByte), distance);
    }
    return r.ok();
}

bool
decodeProfile(blob::Reader &r, const Ddg &ddg, ProfileMap &prof)
{
    const std::uint32_t size = r.u32();
    if (r.ok() && size != std::uint32_t(ddg.numNodes())) {
        r.fail("profile size " + std::to_string(size) +
               " does not match the " +
               std::to_string(ddg.numNodes()) + "-node graph");
        return false;
    }
    prof = ProfileMap(int(size));
    for (std::uint32_t v = 0; v < size; ++v) {
        MemProfile &p = prof.at(NodeId(v));
        p.hitRate = r.f64();
        const std::uint32_t clusters = r.u32();
        if (!r.fits(clusters, 8))
            return false;
        p.clusterCounts.resize(clusters);
        for (std::uint32_t c = 0; c < clusters; ++c)
            p.clusterCounts[c] = r.u64();
        p.preferredCluster = r.i32();
        p.distribution = r.f64();
        p.localRatio = r.f64();
        p.executions = r.u64();
    }
    return r.ok();
}

bool
decodeLatency(blob::Reader &r, const Ddg &ddg,
              LatencyAssignment &lat)
{
    const std::uint32_t count = r.u32();
    if (r.ok() && count != std::uint32_t(ddg.numNodes())) {
        r.fail("latency count " + std::to_string(count) +
               " does not match the graph");
        return false;
    }
    lat.latencies = LatencyMap(ddg, 1);
    for (std::uint32_t v = 0; v < count; ++v) {
        const int latency = r.i32();
        if (r.ok() && latency < 0) {
            r.fail("negative latency for node " + std::to_string(v));
            return false;
        }
        if (!r.ok())
            return false;
        lat.latencies.set(NodeId(v), latency);
    }
    const std::uint32_t classes = r.u32();
    if (!r.fits(classes, 4))
        return false;
    lat.classOf.resize(classes);
    for (std::uint32_t c = 0; c < classes; ++c)
        lat.classOf[c] = r.i32();
    lat.miiTarget = r.i32();
    const std::uint32_t steps = r.u32();
    if (!r.fits(steps, 44))
        return false;
    lat.trace.resize(steps);
    for (LatencyStep &s : lat.trace) {
        s.node = r.i32();
        s.fromClass = r.i32();
        s.toClass = r.i32();
        s.iiBefore = r.i32();
        s.iiAfter = r.i32();
        s.stallBefore = r.f64();
        s.stallAfter = r.f64();
        s.benefit = r.f64();
    }
    return r.ok();
}

bool
decodeSchedule(blob::Reader &r, const Ddg &ddg, ScheduleOutcome &out)
{
    Schedule &s = out.schedule;
    s.ii = r.i32();
    s.length = r.i32();
    s.stageCount = r.i32();
    const std::uint32_t ops = r.u32();
    if (r.ok() && ops != std::uint32_t(ddg.numNodes())) {
        r.fail("schedule has " + std::to_string(ops) +
               " placements for a " +
               std::to_string(ddg.numNodes()) + "-node graph");
        return false;
    }
    s.ops.resize(ops);
    for (PlacedOp &op : s.ops) {
        op.cycle = r.i32();
        op.cluster = r.i32();
    }
    const std::uint32_t copies = r.u32();
    if (!r.fits(copies, 20))
        return false;
    s.copies.resize(copies);
    for (CopyOp &c : s.copies) {
        c.producer = r.i32();
        c.fromCluster = r.i32();
        c.toCluster = r.i32();
        c.busStart = r.i32();
        c.readyCycle = r.i32();
        if (r.ok() &&
            (c.producer < 0 || c.producer >= ddg.numNodes())) {
            r.fail("copy references a node out of range");
            return false;
        }
    }
    out.attempts = r.i32();
    const std::uint32_t chains = r.u32();
    if (!r.fits(chains, 4))
        return false;
    out.chainClusters.resize(chains);
    for (int &c : out.chainClusters)
        c = r.i32();
    return r.ok();
}

bool
decodeLoop(blob::Reader &r, CompiledLoop &loop)
{
    loop.name = r.str();
    if (!decodeDdg(r, loop.ddg) ||
        !decodeProfile(r, loop.ddg, loop.profile) ||
        !decodeLatency(r, loop.ddg, loop.latency) ||
        !decodeSchedule(r, loop.ddg, loop.sched)) {
        return false;
    }
    loop.unrollFactor = r.i32();
    const std::uint8_t policy = r.u8();
    if (r.ok() && policy > std::uint8_t(UnrollPolicy::Selective)) {
        r.fail("bad unroll policy " + std::to_string(int(policy)));
        return false;
    }
    loop.policyChosen = UnrollPolicy(policy);
    loop.mii = r.i32();
    loop.kernelIterations = r.i64();
    loop.invocations = r.i32();
    loop.solverOutcome = r.str();
    loop.solverLowerBound = r.i32();
    loop.solverNodes = r.u64();
    return r.ok();
}

} // namespace

std::string
encodeArtifact(const CompiledBenchmark &bench, const std::string &key)
{
    blob::Writer payload;
    payload.str(bench.name);
    payload.u32(std::uint32_t(bench.loops.size()));
    for (const CompiledLoopVersions &v : bench.loops) {
        encodeLoop(payload, v.primary);
        // Chains are a pure function of the primary graph
        // (Toolchain builds them as MemChains(primary.ddg)), so a
        // presence flag reconstructs them exactly.
        payload.boolean(v.chains.has_value());
        payload.boolean(v.unchained.has_value());
        if (v.unchained)
            encodeLoop(payload, *v.unchained);
    }

    blob::Writer frame;
    frame.u32(kArtifactMagic);
    frame.u32(kArtifactFormatVersion);
    frame.str(libraryVersion());
    frame.str(key);
    frame.u64(payload.size());
    frame.u64(blob::fnv1a64(payload.bytes()));
    frame.raw(payload.bytes());
    return frame.take();
}

api::Result<DecodedArtifact>
decodeArtifact(std::string_view bytes)
{
    blob::Reader r(bytes);
    const std::uint32_t magic = r.u32();
    if (!r.ok() || magic != kArtifactMagic) {
        return api::Status::invalidArgument(
            "not a wivliw artifact (bad magic)");
    }
    const std::uint32_t format = r.u32();
    if (r.ok() && format != kArtifactFormatVersion) {
        return api::Status::error(
            api::StatusCode::FailedPrecondition,
            "artifact format version " + std::to_string(format) +
                " does not match this build's " +
                std::to_string(kArtifactFormatVersion));
    }
    DecodedArtifact out;
    out.library = r.str();
    if (r.ok() && out.library != libraryVersion()) {
        // Schedules are only guaranteed reproducible within one
        // library version; processes mixing versions must not share
        // artifacts across the boundary.
        return api::Status::error(
            api::StatusCode::FailedPrecondition,
            "artifact from library " + out.library +
                " rejected by library " + libraryVersion());
    }
    out.key = r.str();
    const std::uint64_t payloadLen = r.u64();
    const std::uint64_t checksum = r.u64();
    if (!r.ok() || payloadLen != r.remaining()) {
        return api::Status::invalidArgument(
            "truncated artifact: header says " +
            std::to_string(payloadLen) + " payload bytes, " +
            std::to_string(r.ok() ? r.remaining() : 0) + " present");
    }
    const std::string_view payload = bytes.substr(r.pos());
    if (blob::fnv1a64(payload) != checksum) {
        return api::Status::invalidArgument(
            "artifact payload checksum mismatch (corrupt entry)");
    }

    blob::Reader p(payload);
    out.benchmark.name = p.str();
    const std::uint32_t numLoops = p.u32();
    if (!p.fits(numLoops, 2)) {
        return api::Status::invalidArgument(
            "corrupt artifact payload: " + p.error());
    }
    out.benchmark.loops.resize(numLoops);
    for (CompiledLoopVersions &v : out.benchmark.loops) {
        if (!decodeLoop(p, v.primary))
            break;
        const bool hasChains = p.boolean();
        const bool hasUnchained = p.boolean();
        if (!p.ok())
            break;
        if (hasChains)
            v.chains.emplace(v.primary.ddg);
        if (hasUnchained) {
            v.unchained.emplace();
            if (!decodeLoop(p, *v.unchained))
                break;
        }
    }
    if (!p.ok()) {
        return api::Status::invalidArgument(
            "corrupt artifact payload: " + p.error());
    }
    if (!p.atEnd()) {
        return api::Status::invalidArgument(
            "artifact payload has " + std::to_string(p.remaining()) +
            " trailing bytes");
    }
    return out;
}

} // namespace vliw::dist
