// .qm reader and writer. Each record type has one field list, fields(),
// generic over constness: Saver runs it on const records and writes each
// field, Loader runs it on mutable ones and reads each field, then checks
// the record. A layer kind's bytes are therefore listed once, and the two
// sides cannot drift apart.
#include "src/quant/qmodel_io.hpp"

#include <concepts>
#include <initializer_list>
#include <type_traits>
#include <utility>

#include "src/common/serialize.hpp"

namespace ataman {

namespace {

constexpr const char* kQModelMagic = "ATAMAN.QMODEL";

// A layer record starts with its kind tag, the QLayer index, so the order
// of the alternatives is part of the format: new kinds go at the end.
static_assert(std::is_same_v<QLayer, std::variant<QConv2D, QMaxPool, QDense,
                                                  QDepthwiseConv2D, QAvgPool,
                                                  QAdd>>);

// R is T or const T.
template <class R, class T>
concept Of = std::same_as<std::remove_const_t<R>, T>;

// Conv and depthwise layers carry per-channel scales.
template <class L>
constexpr bool kPerChannel = requires(L& l) { l.w_scales; };

// ---------------------------------------------------------------------------
// Field lists, in file order: io(f...) writes or reads each field.
// ---------------------------------------------------------------------------

template <class IO, Of<QuantParams> P>
void fields(IO& io, P& p) { io(p.scale, p.zero_point); }

template <class IO, Of<QuantizedMultiplier> Q>
void fields(IO& io, Q& q) { io(q.mult, q.shift); }

// The inline w_scale and requant slots hold channel 0 (the per-tensor
// layout); the loader broadcasts it to one entry per bias, and the
// per-channel trailer then overrides both vectors.
template <class IO, Of<QConv2D> L>
void fields(IO& io, L& c) {
  auto& g = c.geom;
  io(g.in_h, g.in_w, g.in_c, g.out_c, g.kernel, g.stride, g.pad, c.weights,
     c.bias, c.in, c.out);
  io.channel0(c.w_scales, c.bias.size());
  io.channel0(c.requant, c.bias.size());
  io(c.act_min, c.act_max);
}

template <class IO, Of<QDepthwiseConv2D> L>
void fields(IO& io, L& d) {
  io(d.in_h, d.in_w, d.channels, d.kernel, d.stride, d.pad, d.weights,
     d.bias, d.in, d.out);
  io.channel0(d.w_scales, d.bias.size());
  io.channel0(d.requant, d.bias.size());
  io(d.act_min, d.act_max);
}

template <class IO, Of<QDense> L>
void fields(IO& io, L& f) {
  io(f.in_dim, f.out_dim, f.weights, f.bias, f.in, f.out, f.w_scale,
     f.requant, f.act_min, f.act_max);
}

template <class IO, class L>
  requires Of<L, QMaxPool> || Of<L, QAvgPool>
void fields(IO& io, L& p) {
  io(p.in_h, p.in_w, p.channels, p.kernel, p.stride);
}

template <class IO, Of<QAdd> L>
void fields(IO& io, L& a) {
  io(a.h, a.w, a.channels, a.in_a, a.in_b, a.out, a.requant_a, a.requant_b,
     a.act_min, a.act_max);
}

// The file after its magic and version: the header, the layer records,
// then three append-only trailers. The loader treats a trailer as absent
// at the end of the file, so artifacts that predate it still load.
template <class IO, Of<QModel> M>
void fields(IO& io, M& m) {
  io(m.name, m.topology, m.in_h, m.in_w, m.in_c, m.input);
  io.count(4, m.layers);
  for (auto& layer : m.layers) {
    io.kind(layer);
    std::visit(
        [&](auto& l) {
          io(l);
          io.checked(m, l);
        },
        layer);
  }
  // DAG trailer: per-layer input tensor ids (no rows = pure chain).
  if (!io.more()) return;
  io.count(4, m.layer_inputs);
  for (auto& row : m.layer_inputs) {
    io.count(4, row);
    for (auto& tensor : row) io(tensor);
  }
  io.checked(m, m.layer_inputs);
  // Head trailer: absent means an argmax head.
  if (!io.more()) return;
  io(m.head, m.score_threshold);
  io.checked(m, m.head);
  // Per-channel requant trailer: one row per conv/depthwise layer in
  // stored order, each a channel count, then (scale, mult, shift) per
  // channel. Absent means the inline channel-0 slots broadcast.
  if (!io.more()) return;
  int rows = 0;
  for (auto& layer : m.layers)
    std::visit([&](auto& l) { rows += kPerChannel<decltype(l)>; }, layer);
  io.expect(rows, "per-channel trailer row count");
  for (auto& layer : m.layers) {
    std::visit(
        [&](auto& l) {
          if constexpr (kPerChannel<decltype(l)>) {
            io.count(12, l.w_scales, l.requant);
            for (size_t c = 0; c < l.w_scales.size(); ++c)
              io(l.w_scales[c], l.requant[c]);
            io.checked(m, l);
          }
        },
        layer);
  }
}

// ---------------------------------------------------------------------------
// Adapters.
// ---------------------------------------------------------------------------

class Saver {
 public:
  Saver(BinaryWriter& w, const std::string& path) : w_(w), path_(path) {}

  template <class... F>
  void operator()(const F&... f) { (put(f), ...); }
  template <class T>
  void channel0(const std::vector<T>& v, size_t) { put(v.at(0)); }
  // A u32 element count shared by the vectors, which must be equally long.
  template <class V, class... W>
  void count(size_t, const V& v, const W&... rest) {
    check(((rest.size() == v.size()) && ...),
          "vector lengths differ while saving " + path_);
    w_.u32(static_cast<uint32_t>(v.size()));
  }
  void kind(const QLayer& layer) {
    w_.u32(static_cast<uint32_t>(layer.index()));
  }
  void expect(int n, const char*) { w_.u32(static_cast<uint32_t>(n)); }
  bool more() const { return true; }
  template <class... R>
  void checked(const R&...) {}

 private:
  void put(int32_t v) { w_.i32(v); }
  void put(float v) { w_.f32(v); }
  void put(TaskHead h) { w_.u32(static_cast<uint32_t>(h)); }
  void put(const std::string& s) { w_.str(s); }
  template <class T>
  void put(const std::vector<T>& v) { w_.vec(v); }
  template <class R>
  void put(const R& record) { fields(*this, record); }

  BinaryWriter& w_;
  const std::string& path_;
};

class Loader {
 public:
  Loader(BinaryReader& r, const std::string& path) : r_(r), path_(path) {}

  template <class... F>
  void operator()(F&... f) { (get(f), ...); }
  template <class T>
  void channel0(std::vector<T>& v, size_t n) {
    T first{};
    get(first);
    v.assign(n, first);
  }
  // Every element takes at least `elem_bytes` of the file, which bounds the
  // count before anything is allocated.
  template <class... V>
  void count(size_t elem_bytes, V&... v) {
    const uint32_t n = r_.u32();
    r_.check_count(n, elem_bytes);
    (v.resize(n), ...);
  }
  void kind(QLayer& layer) {
    const uint32_t kind = r_.u32();
    if (kind >= std::variant_size_v<QLayer>)
      fail("unknown layer kind in " + path_);
    [&]<size_t... I>(std::index_sequence<I...>) {
      ((kind == I ? void(layer.emplace<I>()) : void()), ...);
    }(std::make_index_sequence<std::variant_size_v<QLayer>>{});
  }
  void expect(int n, const char* what) {
    if (r_.u32() != static_cast<uint32_t>(n))
      fail(std::string(what) + " mismatch in " + path_);
  }
  bool more() const { return !r_.at_end(); }

  // Load-time checks, run after each record is read; a passing check
  // builds no message. A per-channel trailer row reruns its layer's check.
  void checked(const QModel&, const QConv2D& c) {
    const ConvGeom& g = c.geom;
    check_window(g.kernel, g.stride, "conv");
    check_length(c.weights.size(), {g.out_c, g.kernel, g.kernel, g.in_c},
                 "conv weight");
    check_length(c.bias.size(), {g.out_c}, "conv bias");
    check_channels(c.w_scales.size(), c.bias.size());
  }
  void checked(const QModel&, const QDepthwiseConv2D& d) {
    check_window(d.kernel, d.stride, "depthwise");
    check_length(d.weights.size(), {d.kernel, d.kernel, d.channels},
                 "depthwise weight");
    check_length(d.bias.size(), {d.channels}, "depthwise bias");
    check_channels(d.w_scales.size(), d.bias.size());
  }
  void checked(const QModel&, const QDense& f) {
    check_length(f.weights.size(), {f.out_dim, f.in_dim}, "dense weight");
    check_length(f.bias.size(), {f.out_dim}, "dense bias");
  }
  void checked(const QModel&, const QMaxPool& p) {
    check_window(p.kernel, p.stride, "maxpool");
  }
  void checked(const QModel&, const QAvgPool& p) {
    check_window(p.kernel, p.stride, "avgpool");
  }
  void checked(const QModel&, const QAdd&) {}
  // After the DAG trailer.
  void checked(const QModel& m, const std::vector<std::vector<int>>& dag) {
    if (!dag.empty()) m.validate_dag();
  }
  // After the head trailer. A scored head reconstructs the input through
  // a final dense layer (reconstruction_score).
  void checked(const QModel& m, TaskHead head) {
    check(static_cast<uint32_t>(head) <= 1, "bad head tag in " + path_);
    const auto* last =
        m.layers.empty() ? nullptr : std::get_if<QDense>(&m.layers.back());
    check(head != TaskHead::kScore ||
              (last != nullptr &&
               static_cast<int64_t>(last->out_dim) ==
                   static_cast<int64_t>(m.in_h) * m.in_w * m.in_c),
          "scored head needs a final dense layer as wide as the input in " +
              path_);
  }

 private:
  void get(int32_t& v) { v = r_.i32(); }
  void get(float& v) { v = r_.f32(); }
  void get(TaskHead& h) { h = static_cast<TaskHead>(r_.u32()); }
  void get(std::string& s) { s = r_.str(); }
  template <class T>
  void get(std::vector<T>& v) { v = r_.vec<T>(); }
  template <class R>
  void get(R& record) { fields(*this, record); }

  // A weight or bias vector must hold exactly the product of its layer's
  // shape fields; a negative field or an overflowing product (a corrupt
  // header) never matches.
  void check_length(size_t length, std::initializer_list<int32_t> dims,
                    const char* what) {
    int64_t want = 1;
    bool ok = true;
    for (const int32_t d : dims)
      ok = ok && d >= 0 && !__builtin_mul_overflow(want, int64_t{d}, &want);
    if (!ok || static_cast<uint64_t>(want) != length)
      fail(std::string(what) + " length does not match its layer in " + path_);
  }
  // A kernel or stride below 1 has no output extent (conv_out_extent
  // divides by the stride).
  void check_window(int32_t kernel, int32_t stride, const char* what) {
    if (kernel < 1 || stride < 1)
      fail(std::string(what) + " kernel and stride must be >= 1 in " + path_);
  }
  // One (scale, requant) per bias: trivially true after the layer record,
  // which broadcasts channel 0; a per-channel trailer row may differ.
  void check_channels(size_t scales, size_t biases) {
    if (scales != biases)
      fail("per-channel trailer channel count mismatch in " + path_);
  }

  BinaryReader& r_;
  const std::string& path_;
};

}  // namespace

void save_qmodel(const QModel& m, const std::string& path) {
  BinaryWriter w(path, kQModelMagic);
  Saver io(w, path);
  fields(io, m);
  w.close();
}

QModel load_qmodel(const std::string& path) {
  BinaryReader r(path, kQModelMagic);
  Loader io(r, path);
  QModel m;
  fields(io, m);
  return m;
}

}  // namespace ataman
