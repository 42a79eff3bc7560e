// Spans recorded by the benchmark around its calls into each layer. Kept in
// memory and written out when the run ends; nothing here reaches into the
// library. A disabled tracer records nothing and costs one branch per call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;          // index into the span list, -1 for a root
  std::uint64_t op = 0;     // operation id shared by one request's spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Pause or resume recording (a traced run alternates traced and
  /// untraced passes to measure the tracing overhead).
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span nested under the innermost open one. Returns its id, or
  /// -1 when tracing is off.
  int open(const std::string& name, std::uint64_t op = 0);
  /// Close the innermost open span, which must be `id`.
  void close(int id);
  /// Record a span whose interval is known only afterwards (a request
  /// timed by the load generator). `parent` -1 means the innermost open
  /// span.
  int add(const std::string& name, double start, double end,
          std::uint64_t op = 0, int parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it its children cover.
  /// Children may overlap (concurrent requests); their union is removed.
  std::vector<double> self_times() const;

  /// Summed duration of every span called `name`.
  double total(const std::string& name) const;

  /// Write every span with its self time as JSON. Returns false on IO
  /// failure.
  bool write_json(const std::string& path) const;

  /// RAII span for synchronous calls.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, std::uint64_t op = 0)
        : t_(t), id_(t.open(name, op)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
