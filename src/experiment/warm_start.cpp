#include "experiment/warm_start.hpp"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "common/parallel.hpp"

#if defined(__linux__)
#define REALTOR_WARM_START_FORK 1
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <semaphore.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#endif

namespace realtor::experiment {

namespace {

/// Canonical serialization sink. Doubles are written as exact bit patterns
/// so two configs compare equal iff every field is bit-identical — no
/// formatting precision can merge distinct prefixes.
class PrefixWriter {
 public:
  void field(const char* key, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    out_ << key << "=x" << std::hex << bits << std::dec << ';';
  }
  void field(const char* key, std::uint64_t value) {
    out_ << key << '=' << value << ';';
  }
  void field(const char* key, bool value) {
    out_ << key << '=' << (value ? 1 : 0) << ';';
  }

  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// First simulated instant at which `config` can diverge from a run that
/// shares its canonical prefix: the earliest attack wave (a point without
/// waves never diverges before the end of the run).
SimTime first_divergence(const ScenarioConfig& config) {
  SimTime first = config.duration;
  for (const AttackWave& wave : config.attacks) {
    first = std::min(first, wave.time);
  }
  return first;
}

PointResult run_point_inprocess(const ScenarioConfig& config,
                                const WarmStartOptions& options,
                                std::size_t point) {
  PointResult result;
  std::unique_ptr<obs::TraceSink> sink;
  if (options.make_sink) sink = options.make_sink(point);
  Simulation simulation(config);
  if (sink) simulation.set_trace_sink(sink.get());
  result.metrics = simulation.run();
  result.timeline = simulation.timeline();
  if (sink) sink->flush();
  result.ok = true;
  return result;
}

}  // namespace

std::optional<SweepExec> parse_exec(const std::string& name) {
  if (name == "thread") return SweepExec::kThread;
  if (name == "fork") return SweepExec::kFork;
  return std::nullopt;
}

const char* to_string(SweepExec exec) {
  return exec == SweepExec::kFork ? "fork" : "thread";
}

bool fork_exec_supported() {
#if defined(REALTOR_WARM_START_FORK)
  return true;
#else
  return false;
#endif
}

std::string canonical_prefix(const ScenarioConfig& config) {
  PrefixWriter w;
  w.field("topo.kind", static_cast<std::uint64_t>(config.topology.kind));
  w.field("topo.width", static_cast<std::uint64_t>(config.topology.width));
  w.field("topo.height", static_cast<std::uint64_t>(config.topology.height));
  w.field("topo.nodes", static_cast<std::uint64_t>(config.topology.nodes));
  w.field("topo.links", static_cast<std::uint64_t>(config.topology.links));
  w.field("topo.seed", config.topology.seed);
  w.field("lambda", config.lambda);
  w.field("task_size", config.mean_task_size);
  w.field("queue", config.queue_capacity);
  w.field("duration", config.duration);
  w.field("warmup", config.warmup);
  w.field("seed", config.seed);
  w.field("proto.kind", static_cast<std::uint64_t>(config.protocol_kind));
  const proto::ProtocolConfig& p = config.protocol;
  w.field("proto.help_threshold", p.help_threshold);
  w.field("proto.initial_help_interval", p.initial_help_interval);
  w.field("proto.help_upper_limit", p.help_upper_limit);
  w.field("proto.help_interval_floor", p.help_interval_floor);
  w.field("proto.alpha", p.alpha);
  w.field("proto.beta", p.beta);
  w.field("proto.help_timeout", p.help_timeout);
  w.field("proto.reward", static_cast<std::uint64_t>(p.reward_policy));
  w.field("proto.pledge_threshold", p.pledge_threshold);
  w.field("proto.max_communities",
          static_cast<std::uint64_t>(p.max_communities));
  w.field("proto.push_interval", p.push_interval);
  w.field("proto.gossip_interval", p.gossip_interval);
  w.field("proto.gossip_fanout", static_cast<std::uint64_t>(p.gossip_fanout));
  w.field("proto.soft_state_ttl", p.soft_state_ttl);
  w.field("proto.availability_floor", p.availability_floor);
  w.field("migration.tries",
          static_cast<std::uint64_t>(config.migration.max_tries));
  w.field("migration.negotiation", config.migration.negotiation_messages);
  w.field("migration.transfer", config.migration.migration_messages);
  w.field("cost_mode", static_cast<std::uint64_t>(config.cost_mode));
  w.field("unicast.fixed", config.fixed_unicast_cost.has_value());
  w.field("unicast.cost", config.fixed_unicast_cost.value_or(0.0));
  w.field("flood_mode", static_cast<std::uint64_t>(config.flood_mode));
  w.field("approx_paths", config.approx_path_stats);
  w.field("network_delay", config.network_delay);
  const MultiResourceConfig& mr = config.multi_resource;
  w.field("mr.enabled", mr.enabled);
  w.field("mr.bw_mean", mr.mean_bandwidth_share);
  w.field("mr.bw_capacity", mr.bandwidth_capacity);
  w.field("mr.levels", static_cast<std::uint64_t>(mr.security_levels));
  w.field("mr.secure_fraction", mr.secure_task_fraction);
  const FederationConfig& fed = config.federation;
  w.field("fed.enabled", fed.enabled);
  w.field("fed.block_width", static_cast<std::uint64_t>(fed.block_width));
  w.field("fed.block_height", static_cast<std::uint64_t>(fed.block_height));
  w.field("fed.group_size", static_cast<std::uint64_t>(fed.group_size));
  w.field("fed.escalation_window", fed.escalation_window);
  w.field("elusive.enabled", config.elusiveness.enabled);
  w.field("elusive.period", config.elusiveness.period);
  w.field("sample_interval", config.sample_interval);
  w.field("engine_sample_every", config.engine_sample_every);
  w.field("live_cadence", config.live_cadence);
  w.field("external_arrivals", config.external_arrivals);
  return w.str();
}

std::uint64_t prefix_hash(const ScenarioConfig& config) {
  return fnv1a(canonical_prefix(config));
}

std::vector<WarmStartClass> plan_warm_start(
    const std::vector<ScenarioConfig>& points) {
  std::vector<WarmStartClass> classes;
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScenarioConfig& config = points[i];
    const SimTime divergence = first_divergence(config);
    // Non-groupable points get a singleton class each: the engine observer
    // reports pending-event counts (which see deferred attack events),
    // externally driven arrivals live outside the config, and a wave at
    // t <= 0 leaves no prefix to share.
    const bool groupable = divergence > 0.0 &&
                           config.engine_sample_every == 0 &&
                           !config.external_arrivals;
    if (!groupable) {
      WarmStartClass cls;
      cls.hash = prefix_hash(config);
      cls.prefix_end = std::max(0.0, divergence);
      cls.members = {i};
      classes.push_back(std::move(cls));
      continue;
    }
    const std::string key = canonical_prefix(config);
    const auto found = index.find(key);
    if (found == index.end()) {
      index.emplace(key, classes.size());
      WarmStartClass cls;
      cls.hash = fnv1a(key);
      cls.prefix_end = divergence;
      cls.members = {i};
      classes.push_back(std::move(cls));
    } else {
      WarmStartClass& cls = classes[found->second];
      cls.members.push_back(i);
      cls.prefix_end = std::min(cls.prefix_end, divergence);
    }
  }
  for (WarmStartClass& cls : classes) {
    cls.forkable = cls.members.size() >= 2 && cls.prefix_end > 0.0;
  }
  return classes;
}

bool WarmStartOutcome::all_ok() const {
  for (const PointResult& result : results) {
    if (!result.ok) return false;
  }
  return true;
}

std::vector<std::string> WarmStartOutcome::failures() const {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok) continue;
    std::ostringstream os;
    os << "point " << i << ": " << results[i].error;
    lines.push_back(os.str());
  }
  return lines;
}

#if defined(REALTOR_WARM_START_FORK)

namespace {

static_assert(std::is_trivially_copyable_v<RunMetrics>,
              "RunMetrics crosses the child pipe as raw bytes");
static_assert(std::is_trivially_copyable_v<TimelineSample>,
              "TimelineSample crosses the child pipe as raw bytes");

constexpr std::uint64_t kResultMagic = 0x52544c5257534d52ULL;
constexpr std::uint64_t kResultTrailer = 0x444e4557534d52ULL;

/// Leads every child's result record; the trailer guards against a record
/// truncated at an otherwise plausible length.
struct ResultHeader {
  std::uint64_t magic;
  std::uint64_t point;
};

/// Written by the snapshot parent as it reaps each child. `status` is the
/// normalized exit status (128+signal for signal deaths, -1 when the
/// child could not be forked at all).
struct StatusRecord {
  std::uint64_t point;
  std::int64_t status;
};

int normalize_status(int wait_status) {
  if (WIFEXITED(wait_status)) return WEXITSTATUS(wait_status);
  if (WIFSIGNALED(wait_status)) return 128 + WTERMSIG(wait_status);
  return -1;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* cursor = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t written = ::write(fd, cursor, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

void append_bytes(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

/// Crash-dump guard for forked children: a REALTOR_ASSERT aborts without
/// unwinding, so a dying child would otherwise lose its flight ring. The
/// handler is best-effort (the child is single-threaded and about to die
/// anyway) and the sink's path is point-unique, so even a partial dump can
/// never clobber a sibling's file.
obs::TraceSink* g_crash_sink = nullptr;

extern "C" void warm_start_abort_handler(int) {
  if (g_crash_sink != nullptr) g_crash_sink->flush();
  ::_exit(128 + SIGABRT);
}

/// Child side: arm the divergent waves into the reserved block, replay the
/// buffered prefix trace into the child's own sink, finish the run, and
/// stream the result record back. Never returns to the caller's frame with
/// work pending — the caller _exit()s right after.
void run_cow_child(Simulation& simulation, const obs::MemorySink& prefix_trace,
                   const std::vector<ScenarioConfig>& points,
                   const WarmStartOptions& options, std::size_t point,
                   int fd) {
  if (options.child_hook) options.child_hook(point);
  std::unique_ptr<obs::TraceSink> sink;
  if (options.make_sink) {
    sink = options.make_sink(point);
    if (sink) {
      for (const obs::TraceEvent& event : prefix_trace.events()) {
        sink->on_event(event);
      }
      simulation.set_trace_sink(sink.get());
      g_crash_sink = sink.get();
      std::signal(SIGABRT, warm_start_abort_handler);
    } else {
      simulation.set_trace_sink(nullptr);
    }
  }
  simulation.arm_attacks(points[point].attacks);
  const RunMetrics& metrics = simulation.finish_run();
  if (sink) sink->flush();
  g_crash_sink = nullptr;

  std::string payload;
  const ResultHeader header{kResultMagic, static_cast<std::uint64_t>(point)};
  append_bytes(payload, &header, sizeof header);
  append_bytes(payload, &metrics, sizeof metrics);
  const std::uint64_t samples = simulation.timeline().size();
  append_bytes(payload, &samples, sizeof samples);
  if (samples > 0) {
    append_bytes(payload, simulation.timeline().data(),
                 samples * sizeof(TimelineSample));
  }
  append_bytes(payload, &kResultTrailer, sizeof kResultTrailer);
  if (!write_all(fd, payload.data(), payload.size())) ::_exit(3);
  ::close(fd);
}

/// Snapshot parent: one forked process per class. Runs the shared prefix
/// once (single-threaded), then forks one COW child per member, bounded by
/// the shared `slots` semaphore, reaps them in member order and reports
/// each exit status over the status pipe.
[[noreturn]] void run_snapshot_parent(const std::vector<ScenarioConfig>& points,
                                      const WarmStartOptions& options,
                                      const WarmStartClass& cls, sem_t* slots,
                                      const std::vector<int>& member_write_fds,
                                      int status_fd) {
  sem_wait(slots);
  // The reservation must fit the largest member: every child draws its own
  // wave set from the same block, so the block is sized for the worst one.
  std::uint32_t reserve = 0;
  for (const std::size_t point : cls.members) {
    reserve = std::max(reserve, Simulation::attack_event_count(
                                    points[point].attacks, false));
  }
  ScenarioConfig prefix_config = points[cls.members[0]];
  prefix_config.attacks.clear();
  Simulation simulation(prefix_config);
  simulation.defer_attacks(reserve);
  // Traced classes buffer the prefix in memory; each child replays it into
  // its own sink so per-point trace files cover the whole run.
  obs::MemorySink prefix_trace;
  if (options.make_sink) simulation.set_trace_sink(&prefix_trace);
  simulation.begin_run();
  simulation.run_prefix(cls.prefix_end);

  constexpr std::int64_t kUnreaped = -2;
  std::vector<pid_t> children(cls.members.size(), -1);
  std::vector<std::int64_t> statuses(cls.members.size(), kUnreaped);
  const auto record_exit = [&](pid_t pid, int wait_status) {
    for (std::size_t j = 0; j < children.size(); ++j) {
      if (children[j] == pid) {
        statuses[j] = normalize_status(wait_status);
        break;
      }
    }
    sem_post(slots);
  };
  // Slot acquisition must not block while our own finished children sit
  // unreaped: their slots are only posted at reap time, and with more
  // classes than slots a blocking sem_wait here deadlocks the whole pool.
  // So: try the semaphore, and when it is empty reap one of our children
  // (freeing its slot) before retrying. Only when we have no children at
  // all — every slot is held by other classes — is blocking safe.
  const auto acquire_slot = [&] {
    for (;;) {
      if (sem_trywait(slots) == 0) return;
      if (errno == EINTR) continue;
      int wait_status = 0;
      const pid_t reaped = ::waitpid(-1, &wait_status, 0);
      if (reaped > 0) {
        record_exit(reaped, wait_status);
        continue;  // a slot is free now (may be raced away; retry)
      }
      if (errno == ECHILD) {
        sem_wait(slots);
        return;
      }
    }
  };
  for (std::size_t i = 0; i < cls.members.size(); ++i) {
    if (i > 0) acquire_slot();  // child 0 inherits the prefix's slot
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(status_fd);
      for (std::size_t j = 0; j < member_write_fds.size(); ++j) {
        if (j != i) ::close(member_write_fds[j]);
      }
      run_cow_child(simulation, prefix_trace, points, options,
                    cls.members[i], member_write_fds[i]);
      ::_exit(0);
    }
    children[i] = pid;
    ::close(member_write_fds[i]);
    if (pid < 0) sem_post(slots);  // fork failed: return the unused slot
  }
  for (std::size_t i = 0; i < cls.members.size(); ++i) {
    if (children[i] >= 0 && statuses[i] == kUnreaped) {
      int wait_status = 0;
      ::waitpid(children[i], &wait_status, 0);
      statuses[i] = normalize_status(wait_status);
      sem_post(slots);
    }
    StatusRecord record{static_cast<std::uint64_t>(cls.members[i]),
                        children[i] < 0 ? -1 : statuses[i]};
    write_all(status_fd, &record, sizeof record);
  }
  ::close(status_fd);
  ::_exit(0);
}

/// One pipe the orchestrator drains to EOF.
struct DrainTarget {
  int fd = -1;
  std::string buf;
};

/// Reads every target to EOF concurrently. poll()-driven so a child
/// blocked on a full pipe never deadlocks against the serial merge — all
/// buffers fill as data arrives, in any order.
void drain_pipes(std::vector<DrainTarget*>& targets) {
  std::vector<pollfd> fds(targets.size());
  std::size_t open_count = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    fds[i].fd = targets[i]->fd;
    fds[i].events = POLLIN;
    if (fds[i].fd >= 0) {
      ::fcntl(fds[i].fd, F_SETFL, O_NONBLOCK);
      ++open_count;
    }
  }
  while (open_count > 0) {
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      for (;;) {
        char chunk[4096];
        const ssize_t n = ::read(fds[i].fd, chunk, sizeof chunk);
        if (n > 0) {
          targets[i]->buf.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        ::close(fds[i].fd);  // EOF or unrecoverable error
        fds[i].fd = -1;
        --open_count;
        break;
      }
    }
  }
  for (const pollfd& pfd : fds) {
    if (pfd.fd >= 0) ::close(pfd.fd);
  }
}

/// Parses one child's result record into `result`; false on any size,
/// magic, point or trailer mismatch (a truncated or corrupt record).
bool parse_result(const std::string& buf, std::size_t point,
                  PointResult& result) {
  const std::size_t fixed =
      sizeof(ResultHeader) + sizeof(RunMetrics) + 2 * sizeof(std::uint64_t);
  if (buf.size() < fixed) return false;
  ResultHeader header;
  std::memcpy(&header, buf.data(), sizeof header);
  if (header.magic != kResultMagic || header.point != point) return false;
  std::size_t offset = sizeof header;
  std::memcpy(&result.metrics, buf.data() + offset, sizeof(RunMetrics));
  offset += sizeof(RunMetrics);
  std::uint64_t samples = 0;
  std::memcpy(&samples, buf.data() + offset, sizeof samples);
  offset += sizeof samples;
  if (buf.size() != fixed + samples * sizeof(TimelineSample)) return false;
  result.timeline.resize(samples);
  if (samples > 0) {
    std::memcpy(result.timeline.data(), buf.data() + offset,
                samples * sizeof(TimelineSample));
    offset += samples * sizeof(TimelineSample);
  }
  std::uint64_t trailer = 0;
  std::memcpy(&trailer, buf.data() + offset, sizeof trailer);
  return trailer == kResultTrailer;
}

/// One launched class: the snapshot parent's pid plus the pipes the
/// orchestrator still has to drain.
struct ClassLaunch {
  const WarmStartClass* cls = nullptr;
  pid_t parent = -1;
  DrainTarget status;
  std::vector<DrainTarget> members;  // aligned with cls->members
};

void run_fork_phase(const std::vector<ScenarioConfig>& points,
                    const WarmStartOptions& options,
                    const std::vector<const WarmStartClass*>& fork_classes,
                    unsigned jobs, WarmStartOutcome& outcome) {
  // One process-shared counting semaphore bounds live children across all
  // classes at --jobs, exactly like the thread pool bounds workers.
  sem_t* slots = static_cast<sem_t*>(
      ::mmap(nullptr, sizeof(sem_t), PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  const bool have_slots =
      slots != MAP_FAILED && sem_init(slots, /*pshared=*/1, jobs) == 0;
  std::vector<ClassLaunch> launches;
  launches.reserve(fork_classes.size());
  for (const WarmStartClass* cls : fork_classes) {
    if (!have_slots) {
      // Could not build the process pool: run the class in-process.
      for (const std::size_t point : cls->members) {
        outcome.results[point] =
            run_point_inprocess(points[point], options, point);
      }
      continue;
    }
    ClassLaunch launch;
    launch.cls = cls;
    int status_pipe[2] = {-1, -1};
    std::vector<int> write_fds;
    bool pipes_ok = ::pipe(status_pipe) == 0;
    for (std::size_t i = 0; pipes_ok && i < cls->members.size(); ++i) {
      int fds[2] = {-1, -1};
      pipes_ok = ::pipe(fds) == 0;
      if (pipes_ok) {
        DrainTarget target;
        target.fd = fds[0];
        launch.members.push_back(std::move(target));
        write_fds.push_back(fds[1]);
      }
    }
    if (pipes_ok) {
      std::cout.flush();
      std::cerr.flush();
    }
    const pid_t pid = pipes_ok ? ::fork() : -1;
    if (pid == 0) {
      // Snapshot parent: the orchestrator keeps the read ends.
      ::close(status_pipe[0]);
      for (const DrainTarget& target : launch.members) ::close(target.fd);
      run_snapshot_parent(points, options, *cls, slots, write_fds,
                          status_pipe[1]);
    }
    if (status_pipe[1] >= 0) ::close(status_pipe[1]);
    for (const int fd : write_fds) ::close(fd);
    if (pid < 0) {
      // fork (or a pipe) failed: fall back to in-process for this class.
      if (status_pipe[0] >= 0) ::close(status_pipe[0]);
      for (const DrainTarget& target : launch.members) {
        if (target.fd >= 0) ::close(target.fd);
      }
      for (const std::size_t point : cls->members) {
        outcome.results[point] =
            run_point_inprocess(points[point], options, point);
      }
      continue;
    }
    launch.parent = pid;
    launch.status.fd = status_pipe[0];
    outcome.forked_points += cls->members.size();
    launches.push_back(std::move(launch));
  }

  std::vector<DrainTarget*> targets;
  for (ClassLaunch& launch : launches) {
    targets.push_back(&launch.status);
    for (DrainTarget& target : launch.members) targets.push_back(&target);
  }
  drain_pipes(targets);

  for (ClassLaunch& launch : launches) {
    int parent_status = 0;
    ::waitpid(launch.parent, &parent_status, 0);
    const int parent_exit = normalize_status(parent_status);
    std::unordered_map<std::uint64_t, std::int64_t> statuses;
    const std::string& status_buf = launch.status.buf;
    for (std::size_t offset = 0;
         offset + sizeof(StatusRecord) <= status_buf.size();
         offset += sizeof(StatusRecord)) {
      StatusRecord record;
      std::memcpy(&record, status_buf.data() + offset, sizeof record);
      statuses[record.point] = record.status;
    }
    for (std::size_t i = 0; i < launch.cls->members.size(); ++i) {
      const std::size_t point = launch.cls->members[i];
      PointResult& result = outcome.results[point];
      result.forked = true;
      const auto found = statuses.find(point);
      const bool parsed = parse_result(launch.members[i].buf, point, result);
      std::ostringstream error;
      if (found == statuses.end()) {
        result.exit_status = parent_exit != 0 ? parent_exit : -1;
        error << "child was never reaped (snapshot parent "
              << (parent_exit != 0 ? "died" : "lost it") << ", exit status "
              << parent_exit << ")";
      } else if (found->second == -1) {
        result.exit_status = -1;
        error << "could not fork child";
      } else if (found->second != 0) {
        result.exit_status = static_cast<int>(found->second);
        error << "child exited with status " << found->second;
      } else if (!parsed) {
        result.exit_status = 0;
        error << "truncated result record (" << launch.members[i].buf.size()
              << " bytes)";
      } else {
        result.ok = true;
        result.exit_status = 0;
        continue;
      }
      result.ok = false;
      result.error = error.str();
    }
  }
  if (have_slots) sem_destroy(slots);
  if (slots != MAP_FAILED) ::munmap(slots, sizeof(sem_t));
}

}  // namespace

#endif  // REALTOR_WARM_START_FORK

WarmStartOutcome run_warm_start(const std::vector<ScenarioConfig>& points,
                                const WarmStartOptions& options) {
  WarmStartOutcome outcome;
  outcome.results.resize(points.size());
  outcome.classes = plan_warm_start(points);

  const bool forking =
      options.exec == SweepExec::kFork && fork_exec_supported();
  std::vector<std::size_t> inprocess;
  std::vector<const WarmStartClass*> fork_classes;
  for (const WarmStartClass& cls : outcome.classes) {
    if (forking && cls.forkable) {
      fork_classes.push_back(&cls);
    } else {
      inprocess.insert(inprocess.end(), cls.members.begin(),
                       cls.members.end());
    }
  }
  std::sort(inprocess.begin(), inprocess.end());

  // In-process batch first: parallel_for joins its workers before
  // returning, so the fork phase below starts from a single-threaded
  // process (fork() and threads do not mix).
  const unsigned jobs = resolve_jobs(options.jobs);
  parallel_for(inprocess.size(), jobs, [&](std::size_t i) {
    const std::size_t point = inprocess[i];
    outcome.results[point] = run_point_inprocess(points[point], options, point);
  });

#if defined(REALTOR_WARM_START_FORK)
  if (!fork_classes.empty()) {
    run_fork_phase(points, options, fork_classes, jobs, outcome);
  }
#else
  REALTOR_ASSERT(fork_classes.empty());
#endif
  return outcome;
}

}  // namespace realtor::experiment
