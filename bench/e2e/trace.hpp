#pragma once

// In-memory span recorder for bench_e2e's traced runs. Spans are recorded
// by the benchmark around its calls into each layer's public API (mesh
// build, partition, set-up construction, clustering, one span per service
// request from submit to completion, run_lts, the inversion); nothing is
// recorded inside the library. A disabled Tracer records nothing, so the
// untraced runs that produce the end-to-end numbers pay one branch per
// call site.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench_e2e {

struct Span {
  std::string name;   // e.g. "mesh.build", "svc.request"
  std::string layer;  // mesh | par | lts | svc | fem | solver | inverse
  double start = 0.0;  // seconds since the tracer's epoch
  double end = -1.0;   // < start while still open
  int parent = -1;     // index of the enclosing span; -1 = a root
  int track = 0;       // Chrome trace thread id (0 = main, k = client k)
  std::uint64_t request = 0;  // SimulationService Ticket::id; 0 = none
};

// Wall-clock attribution of the root spans: each instant inside a root is
// charged to the deepest span open at that instant (ties to the one opened
// last), so concurrent request spans are counted once, not per request.
struct Attribution {
  std::map<std::string, double> self_seconds;  // per layer
  double root_seconds = 0.0;                   // summed root walls
  double unattributed_seconds = 0.0;           // covered by no layer span
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  [[nodiscard]] double now() const;

  // Opens a span and returns its index (-1 when disabled). Thread-safe.
  int begin(const std::string& name, const std::string& layer, int parent,
            int track = 0, std::uint64_t request = 0);
  void end(int span);
  // Records an already finished interval (times from now()).
  int record(const std::string& name, const std::string& layer, int parent,
             double start, double end, int track = 0,
             std::uint64_t request = 0);

  // RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, const std::string& layer,
          int parent)
        : t_(t), id_(t.begin(name, layer, parent)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] Attribution attribute() const;
  // Summed duration of the closed spans called `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  // Chrome trace-event JSON ("X" complete events, microseconds), loadable
  // in chrome://tracing or Perfetto. Throws on I/O failure.
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  double epoch_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace bench_e2e
