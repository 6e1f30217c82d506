// Layer probes: isolated replays of one layer's public calls at the sizes a
// workload produced, timed as the minimum over repetitions of thread CPU
// time (the micro_engine discipline). Every probe is one span.
#include <algorithm>
#include <vector>

#include "bp/ecn.hpp"
#include "common/histogram.hpp"
#include "flow/flow_table.hpp"
#include "obs/latency_estimator.hpp"
#include "perfbench.hpp"
#include "pktio/mempool.hpp"
#include "pktio/ring.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 7;
/// The NF rings' default size, as every workload builds them.
const std::uint32_t kRingCapacity = PlatformConfig{}.rx_capacity;

/// Keeps results observable so the optimiser cannot drop the timed calls.
volatile std::uint64_t g_sink = 0;

struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
};

ProbeResult summarize(const char* name, const char* unit,
                      std::vector<double> per_op) {
  std::sort(per_op.begin(), per_op.end());
  ProbeResult res;
  res.name = name;
  res.unit = unit;
  res.value = per_op.front();
  res.noise = per_op.front() > 0 ? per_op[per_op.size() / 2] / per_op.front() - 1.0
                                 : 0.0;
  return res;
}

/// Runs `body` kReps times; body returns the number of operations it did.
/// Result: min CPU time per operation in `scale` units (1e9 = ns).
template <typename Body>
ProbeResult probe(const char* name, const char* unit, double scale, Body body) {
  Span span(name);
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) {
    const double c0 = thread_cpu();
    const double ops = static_cast<double>(body());
    per_op.push_back((thread_cpu() - c0) * scale / std::max(ops, 1.0));
  }
  return summarize(name, unit, std::move(per_op));
}

/// A self-rescheduling event: keeps the engine's pending count constant.
struct Ticker {
  nfv::sim::Engine* engine;
  Lcg rng;
  void fire() {
    engine->schedule_after(static_cast<nfv::Cycles>(1 + (rng.next() & 1023)),
                           [this] { fire(); });
  }
};

nfv::pktio::FlowKey probe_key(std::uint64_t n) {
  nfv::pktio::FlowKey k;
  k.src_ip = 0x0b000000u + static_cast<std::uint32_t>(n / 60000);
  k.src_port = static_cast<std::uint16_t>(1 + n % 60000);
  k.dst_ip = 0x0a800001u;
  k.dst_port = 80;
  k.proto = nfv::pktio::kProtoUdp;
  return k;
}

}  // namespace

std::vector<ProbeResult> run_probes(const ProbeSizes& sizes) {
  std::vector<ProbeResult> out;

  // sim: dispatch cost at the workload's typical pending-event count.
  {
    nfv::sim::Engine engine;
    const std::size_t pending = std::max<std::size_t>(1, sizes.pending);
    std::vector<Ticker> tickers(pending);
    for (std::size_t i = 0; i < pending; ++i) {
      tickers[i] = Ticker{&engine, Lcg{i + 1}};
      tickers[i].fire();
    }
    // ~200k dispatches per repetition: mean delay 512 cycles per ticker.
    const auto window = static_cast<nfv::Cycles>(200'000.0 * 512.0 /
                                                 static_cast<double>(pending));
    out.push_back(probe("sim.event_ns", "ns", 1e9, [&] {
      return engine.run_until(engine.now() + window);
    }));
  }

  // pktio: burst of 32 through a ring (enqueue + dequeue per packet).
  {
    nfv::pktio::Ring ring(kRingCapacity);
    std::vector<nfv::pktio::Mbuf> mbufs(32);
    std::vector<nfv::pktio::Mbuf*> in, outv(32);
    for (auto& m : mbufs) in.push_back(&m);
    for (std::size_t i = 0; i < kRingCapacity / 2; ++i) ring.enqueue(in[0]);
    out.push_back(probe("pktio.ring_burst_ns", "ns", 1e9, [&] {
      std::uint64_t n = 0;
      for (int i = 0; i < 20'000; ++i) {
        n += ring.enqueue_burst(in.data(), 32);
        n += ring.dequeue_burst(outv.data(), 32);
      }
      g_sink = g_sink + n;
      return n / 2;
    }));
  }

  // pktio: pool alloc/free bursts with the workload's peak held out.
  {
    nfv::pktio::MbufPool pool(1u << 20);
    std::vector<nfv::pktio::Mbuf*> held(sizes.pool_in_use), burst(32);
    pool.alloc_burst(held.data(), static_cast<std::uint32_t>(held.size()));
    out.push_back(probe("pktio.pool_burst_ns", "ns", 1e9, [&] {
      std::uint64_t n = 0;
      for (int i = 0; i < 20'000; ++i) {
        const std::uint32_t got = pool.alloc_burst(burst.data(), 32);
        pool.free_burst(burst.data(), got);
        n += got;
      }
      return n;
    }));
    pool.free_burst(held.data(), static_cast<std::uint32_t>(held.size()));
  }
  out.push_back(probe("pktio.pool_ctor_ms", "ms", 1e3, [] {
    nfv::pktio::MbufPool pool(1u << 20);
    g_sink = g_sink + pool.capacity();
    return 1;
  }));

  // flow: table operations at the workload's peak table size.
  {
    const std::uint64_t n = std::max<std::uint64_t>(1, sizes.flow_table);
    const nfv::Cycles period = 1000;
    nfv::flow::FlowTable::Config cfg;
    cfg.idle_timeout = static_cast<nfv::Cycles>(1) << 40;
    nfv::flow::FlowTable table(cfg);
    for (std::uint64_t i = 0; i < n; ++i) table.install(probe_key(i), 0, 0);
    Lcg rng{7};
    nfv::Cycles now = 0;
    out.push_back(probe("flow.lookup_ns", "ns", 1e9, [&] {
      std::uint64_t hits = 0;
      for (int i = 0; i < 200'000; ++i) {
        hits += table.lookup(probe_key(rng.next() % n), ++now) != nullptr;
      }
      g_sink = g_sink + hits;
      return 200'000;
    }));

    // Churn in generations of m keys: each repetition installs one fresh
    // generation and expires the oldest, so the size stays at ~max(n, m).
    const std::uint64_t m = std::clamp<std::uint64_t>(n / 8, 1024, 65'536);
    const std::uint64_t gens = (n + m - 1) / m;
    nfv::flow::FlowTable::Config churn_cfg;
    churn_cfg.idle_timeout = static_cast<nfv::Cycles>(gens) * period - period / 2;
    nfv::flow::FlowTable churn(churn_cfg);
    std::uint64_t next_key = 0, gen = 0;
    const auto install_gen = [&] {
      for (std::uint64_t i = 0; i < m; ++i) {
        churn.install(probe_key(next_key++), 0, static_cast<nfv::Cycles>(gen) * period);
      }
      ++gen;
      return m;
    };
    for (std::uint64_t g = 0; g < gens; ++g) install_gen();
    std::vector<double> install_ns, expire_ns;
    {
      Span span("flow.churn");
      for (int r = 0; r < kReps; ++r) {
        const double c0 = thread_cpu();
        const std::uint64_t installed = install_gen();
        const double c1 = thread_cpu();
        const std::size_t expired =
            churn.expire(static_cast<nfv::Cycles>(gen - 1) * period);
        const double c2 = thread_cpu();
        install_ns.push_back((c1 - c0) * 1e9 / static_cast<double>(installed));
        expire_ns.push_back((c2 - c1) * 1e9 /
                            static_cast<double>(std::max<std::size_t>(expired, 1)));
      }
    }
    out.push_back(summarize("flow.install_ns", "ns", std::move(install_ns)));
    out.push_back(summarize("flow.expire_ns", "ns", std::move(expire_ns)));
  }

  // bp: one EcnMarker::on_enqueue per packet-hop, ring between thresholds.
  {
    nfv::bp::EcnMarker marker(std::max<std::size_t>(1, sizes.nf_count));
    nfv::pktio::Ring ring(kRingCapacity);
    nfv::pktio::Mbuf mbuf;
    for (std::size_t i = 0; i < kRingCapacity * 2 / 5; ++i) ring.enqueue(&mbuf);
    mbuf.is_tcp = true;
    mbuf.ecn_capable = true;
    const auto nfs = static_cast<nfv::flow::NfId>(std::max<std::size_t>(1, sizes.nf_count));
    out.push_back(probe("bp.ecn_enqueue_ns", "ns", 1e9, [&] {
      std::uint64_t marks = 0;
      for (int i = 0; i < 200'000; ++i) {
        mbuf.ecn_marked = false;
        marks += marker.on_enqueue(static_cast<nfv::flow::NfId>(i) % nfs, ring, mbuf);
      }
      g_sink = g_sink + marks;
      return 200'000;
    }));
  }

  // obs: what the manager records per egressed packet (chain latency
  // histogram + tail estimator).
  {
    nfv::Histogram hist(1ULL << 40, 8);
    nfv::obs::LatencyEstimator tail;
    Lcg rng{11};
    out.push_back(probe("obs.latency_record_ns", "ns", 1e9, [&] {
      for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t v = 1000 + (rng.next() & 0xfffff);
        hist.record(v);
        tail.record(v);
      }
      g_sink = g_sink + hist.max();
      return 200'000;
    }));
  }
  return out;
}

}  // namespace perfbench
