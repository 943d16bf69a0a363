#include "motion/grid_probability.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace mars::motion {

namespace {

constexpr double kTwoPi = 2.0 * M_PI;

// Standard normal CDF.
double Phi(double z) { return 0.5 * std::erfc(-z * M_SQRT1_2); }

// A standardized argument this far out is at infinity: Φ(−8.5) ≈ 9.5e-18
// is below half an ulp of 1.
constexpr double kAtInfinity = 8.5;

// Variance floor of a degenerate axis (a 1 µm standard deviation).
constexpr double kVarianceFloor = 1e-12;

// One half of a symmetric Gauss–Legendre rule on [−1, 1]: its positive
// nodes and their weights.
struct HalfRule {
  int32_t size;
  double x[10];
  double w[10];
};
constexpr HalfRule kGauss6 = {
    3,
    {0.9324695142031522, 0.6612093864662647, 0.2386191860831970},
    {0.1713244923791705, 0.3607615730481384, 0.4679139345726904}};
constexpr HalfRule kGauss12 = {
    6,
    {0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
     0.5873179542866171, 0.3678314989981802, 0.1252334085114692},
    {0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
     0.2031674267230659, 0.2334925365383547, 0.2491470458134029}};
constexpr HalfRule kGauss20 = {
    10,
    {0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
     0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
     0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
     0.07652652113349733},
    {0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
     0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
     0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
     0.1527533871307259}};

// The standard bivariate normal with correlation rho: Genz's BVNU (Drezner
// and Wesolowsky's method, reworked for double precision and |rho| near
// 1). What depends on rho alone is computed once, at the first argument
// pair that needs it, so a step's lattice of CDF values shares it and a
// lattice wholly at infinity skips it.
class BivariateNormal {
 public:
  explicit BivariateNormal(double rho) : rho_(rho) {}

  // P(U < h, V < k).
  double Cdf(double h, double k) {
    if (h <= -kAtInfinity || k <= -kAtInfinity) return 0.0;
    if (h >= kAtInfinity) return Phi(k);
    if (k >= kAtInfinity) return Phi(h);
    if (nodes_ < 0) Prepare();
    return std::clamp(UpperOrthant(-h, -k), 0.0, 1.0);
  }

 private:
  void Prepare() {
    nodes_ = 0;
    const double r = std::abs(rho_);
    if (rho_ == 0.0 || r >= 1.0) return;
    const HalfRule& rule = r < 0.3 ? kGauss6 : r < 0.75 ? kGauss12 : kGauss20;
    nodes_ = 2 * rule.size;
    if (r < 0.925) {
      asr_ = std::asin(rho_) / 2;
    } else {
      as_ = (1 - r) * (1 + r);
      a_ = std::sqrt(as_);
    }
    for (int32_t m = 0; m < nodes_; ++m) {
      // Nodes 1 ∓ x on [0, 2].
      const double t = 1.0 + (m % 2 == 0 ? -1.0 : 1.0) * rule.x[m / 2];
      w_[m] = rule.w[m / 2];
      if (r < 0.925) {
        const double sn = std::sin(asr_ * t);
        u_[m] = sn;
        v_[m] = 1.0 / (1.0 - sn * sn);
      } else {
        const double xs = (a_ / 2 * t) * (a_ / 2 * t);
        const double rs = std::sqrt(1.0 - xs);
        u_[m] = xs;
        v_[m] = 1.0 / xs;
        e_[m] = xs / ((1 + rs) * (1 + rs));
        r_[m] = 1.0 / rs;
      }
    }
  }

  // P(U > h, V > k).
  double UpperOrthant(double h, double k) const {
    if (rho_ == 0.0) return Phi(-h) * Phi(-k);
    double hk = h * k;
    double bvn = 0.0;
    if (std::abs(rho_) < 0.925) {
      const double hs = (h * h + k * k) / 2;
      for (int32_t m = 0; m < nodes_; ++m) {
        bvn += w_[m] * std::exp((u_[m] * hk - hs) * v_[m]);
      }
      return bvn * asr_ / kTwoPi + Phi(-h) * Phi(-k);
    }
    if (rho_ < 0) {
      k = -k;
      hk = -hk;
    }
    if (std::abs(rho_) < 1) {
      const double bs = (h - k) * (h - k);
      const double c = (4 - hk) / 8;
      const double d = (12 - hk) / 80;
      const double asr = -(bs / as_ + hk) / 2;
      if (asr > -100) {
        bvn = a_ * std::exp(asr) *
              (1 - c * (bs - as_) * (1 - d * bs) / 3 + c * d * as_ * as_);
      }
      if (hk > -100) {
        const double b = std::sqrt(bs);
        bvn -= std::exp(-hk / 2) * std::sqrt(kTwoPi) * Phi(-b / a_) * b *
               (1 - c * bs * (1 - d * bs) / 3);
      }
      double sum = 0.0;
      for (int32_t m = 0; m < nodes_; ++m) {
        const double asr_m = -(bs * v_[m] + hk) / 2;
        if (asr_m <= -100) continue;
        const double xs = u_[m];
        const double sp = 1 + c * xs * (1 + 5 * d * xs);
        const double ep = std::exp(-(hk / 2) * e_[m]) * r_[m];
        sum += w_[m] * std::exp(asr_m) * (sp - ep);
      }
      bvn = (a_ / 2 * sum - bvn) / kTwoPi;
    }
    if (rho_ > 0) return bvn + Phi(-std::max(h, k));
    if (h >= k) return -bvn;
    const double between = h < 0 ? Phi(k) - Phi(h) : Phi(-h) - Phi(-k);
    return between - bvn;
  }

  double rho_;
  int32_t nodes_ = -1;  // −1 until Prepare()
  double asr_ = 0.0;  // asin(rho) / 2, for |rho| < 0.925
  double as_ = 0.0;   // 1 − rho², for |rho| >= 0.925
  double a_ = 0.0;    // its square root
  double w_[20] = {};
  // Per node: sin(asr·t) and 1 / (1 − sin²) for |rho| < 0.925, else
  // xs = (a·t/2)², 1 / xs, xs / (1 + rs)² and 1 / rs for rs = √(1 − xs).
  double u_[20] = {};
  double v_[20] = {};
  double e_[20] = {};
  double r_[20] = {};
};

// P(a < Z < b) for a standard normal Z, from the tail nearer the interval
// so that a small probability keeps its relative precision.
double PhiInterval(double a, double b) {
  return a > 0.0 ? Phi(-a) - Phi(-b) : Phi(b) - Phi(a);
}

// Blocks first..last (inclusive; empty when first > last) along one axis.
struct IndexRange {
  int32_t first;
  int32_t last;
};

// The blocks along one axis, of `size` from `origin`, n of them, whose
// interval grown by `grow` on both sides meets [lo, hi]. The bounds are
// clamped before they become integers: a far-off step's would not fit.
IndexRange BlocksMeeting(double lo, double hi, double origin, double size,
                         double grow, int32_t n) {
  const double first = std::ceil((lo - grow - origin) / size) - 1.0;
  const double last = std::floor((hi + grow - origin) / size);
  const double blocks = static_cast<double>(n);
  return {static_cast<int32_t>(std::clamp(first, 0.0, blocks)),
          static_cast<int32_t>(std::clamp(last, -1.0, blocks - 1.0))};
}

// The grown intervals [origin + i·size − grow, origin + i·size + size +
// grow] of blocks `range` along one axis, standardized by the step's mean
// and standard deviation: their distinct edges in ascending order, and
// each block's lower and upper edge as an index into them. Edges of
// different blocks coincide when 2·grow is a multiple of size (a 5% frame
// on the client's 40 × 40 grid), and each lattice point is then computed
// once.
void StandardizedEdges(double origin, double size, double grow,
                       const IndexRange& range, double mean, double sigma,
                       std::vector<double>* edges, std::vector<int32_t>* lower,
                       std::vector<int32_t>* upper) {
  const int32_t n = range.last - range.first + 1;
  const auto low = [&](int32_t t) {
    return origin + (range.first + t) * size - grow;
  };
  const auto high = [&](int32_t t) {
    return origin + (range.first + t) * size + size + grow;
  };
  edges->clear();
  lower->resize(n);
  upper->resize(n);
  double last = 0.0;
  // Both edge sequences ascend with the block index: merge them.
  for (int32_t a = 0, b = 0; a < n || b < n;) {
    const bool take_low = a < n && (b == n || low(a) <= high(b));
    const double edge = take_low ? low(a) : high(b);
    if (edges->empty() || edge != last) {
      edges->push_back((edge - mean) / sigma);
      last = edge;
    }
    const int32_t index = static_cast<int32_t>(edges->size()) - 1;
    if (take_low) {
      (*lower)[a++] = index;
    } else {
      (*upper)[b++] = index;
    }
  }
}

// Accumulates the discounted mass of each step's Gaussian per block.
class FieldAccumulator {
 public:
  FieldAccumulator(const geometry::GridPartition& grid,
                   const GridProbabilityOptions& options)
      : grid_(grid),
        grow_x_(options.frame_half_width),
        grow_y_(options.frame_half_height),
        mass_(static_cast<size_t>(grid.block_count()), 0.0) {}

  // Adds `weight` times each block's probability under `pred`.
  void Add(const Prediction& pred, double weight) {
    if (!(weight > 0.0) || !std::isfinite(pred.mean.x) ||
        !std::isfinite(pred.mean.y) || !std::isfinite(pred.cov_xx) ||
        !std::isfinite(pred.cov_xy) || !std::isfinite(pred.cov_yy)) {
      return;
    }
    mx_ = pred.mean.x;
    my_ = pred.mean.y;
    sx_ = std::sqrt(std::max(pred.cov_xx, kVarianceFloor));
    sy_ = std::sqrt(std::max(pred.cov_yy, kVarianceFloor));
    const double rho = std::clamp(pred.cov_xy / (sx_ * sy_), -1.0, 1.0);
    if (std::isnan(rho) || Collapsed() || !Support(rho)) return;
    if (rho == 0.0) {
      AddSeparable(weight);
    } else {
      AddCorrelated(rho, weight);
    }
  }

  // The accumulated field, normalized, in ascending block id.
  BlockProbabilities Finish() const {
    BlockProbabilities probs;
    if (rows_.first > rows_.last) return probs;
    double total = 0.0;
    ForEachBounded([&](size_t b) { total += mass_[b]; });
    if (!(total > 0.0)) return probs;
    ForEachBounded([&](size_t b) {
      if (mass_[b] > 0.0) {
        probs.emplace_back(static_cast<int64_t>(b), mass_[b] / total);
      }
    });
    return probs;
  }

 private:
  // True when the grid's grown extent along an axis, standardized by the
  // step, rounds to one point: every block's interval is then empty in
  // doubles and its probability exactly 0 (a diverged step, σ ≫ the
  // space), so the step is skipped before its support is walked.
  bool Collapsed() const {
    const geometry::Box2& space = grid_.space();
    return (space.lo(0) - grow_x_ - mx_) / sx_ ==
               (space.hi(0) + grow_x_ - mx_) / sx_ ||
           (space.lo(1) - grow_y_ - my_) / sy_ ==
               (space.hi(1) + grow_y_ - my_) / sy_;
  }

  // Sets row_range_ and spans_ to the step's support: the blocks whose
  // grown box meets the ellipse of Mahalanobis distance kSupportSigmas,
  // row by row. A near-degenerate step's ellipse is a thin band, and only
  // the blocks along it are taken, not its axis box. False when no block
  // is in it.
  bool Support(double rho) {
    constexpr double r = kSupportSigmas;
    const geometry::Box2& space = grid_.space();
    row_range_ = BlocksMeeting(my_ - r * sy_, my_ + r * sy_, space.lo(1),
                               grid_.block_height(), grow_y_, grid_.ny());
    if (row_range_.first > row_range_.last) return false;
    // At standardized height v the ellipse spans u = rho·v ± s·√(r² − v²);
    // its right end peaks at u = r where v = rho·r, its left end bottoms
    // at u = −r where v = −rho·r, and each is monotone to either side.
    const double s = std::sqrt((1 - rho) * (1 + rho));
    const auto half = [&](double v) {
      return s * std::sqrt(std::max(r * r - v * v, 0.0));
    };
    spans_.clear();
    col_range_ = {grid_.nx(), -1};
    for (int32_t j = row_range_.first; j <= row_range_.last; ++j) {
      const double y0 = space.lo(1) + j * grid_.block_height();
      const double va = std::max((y0 - grow_y_ - my_) / sy_, -r);
      const double vb =
          std::min((y0 + grid_.block_height() + grow_y_ - my_) / sy_, r);
      IndexRange cols{grid_.nx(), -1};
      if (va <= vb) {
        const double umax = rho * r >= va && rho * r <= vb
                                ? r
                                : std::max(rho * va + half(va),
                                           rho * vb + half(vb));
        const double umin = -rho * r >= va && -rho * r <= vb
                                ? -r
                                : std::min(rho * va - half(va),
                                           rho * vb - half(vb));
        cols = BlocksMeeting(mx_ + sx_ * umin, mx_ + sx_ * umax, space.lo(0),
                             grid_.block_width(), grow_x_, grid_.nx());
      }
      spans_.push_back(cols);
      col_range_.first = std::min(col_range_.first, cols.first);
      col_range_.last = std::max(col_range_.last, cols.last);
    }
    if (col_range_.first > col_range_.last) return false;
    rows_.first = std::min(rows_.first, row_range_.first);
    rows_.last = std::max(rows_.last, row_range_.last);
    cols_.first = std::min(cols_.first, col_range_.first);
    cols_.last = std::max(cols_.last, col_range_.last);
    return true;
  }

  // rho = 0: a block's probability is the product of its column's and its
  // row's.
  void AddSeparable(double weight) {
    const geometry::Box2& space = grid_.space();
    px_.clear();
    for (int32_t i = col_range_.first; i <= col_range_.last; ++i) {
      const double x0 = space.lo(0) + i * grid_.block_width();
      px_.push_back(PhiInterval((x0 - grow_x_ - mx_) / sx_,
                                (x0 + grid_.block_width() + grow_x_ - mx_) /
                                    sx_));
    }
    for (int32_t j = row_range_.first; j <= row_range_.last; ++j) {
      const IndexRange& cols = spans_[j - row_range_.first];
      if (cols.first > cols.last) continue;
      const double y0 = space.lo(1) + j * grid_.block_height();
      const double py =
          weight * PhiInterval((y0 - grow_y_ - my_) / sy_,
                               (y0 + grid_.block_height() + grow_y_ - my_) /
                                   sy_);
      double* row = &mass_[static_cast<size_t>(j) * grid_.nx()];
      for (int32_t i = cols.first; i <= cols.last; ++i) {
        row[i] += py * px_[i - col_range_.first];
      }
    }
  }

  // rho ≠ 0: a block's probability is its grown box's, from the bivariate
  // CDF at the box's four corners. Corners are points of the lattice of
  // grown-interval edges, each evaluated once.
  void AddCorrelated(double rho, double weight) {
    const geometry::Box2& space = grid_.space();
    StandardizedEdges(space.lo(0), grid_.block_width(), grow_x_, col_range_,
                      mx_, sx_, &hx_, &lower_x_, &upper_x_);
    StandardizedEdges(space.lo(1), grid_.block_height(), grow_y_, row_range_,
                      my_, sy_, &ky_, &lower_y_, &upper_y_);
    BivariateNormal normal(rho);
    const size_t stride = hx_.size();
    lattice_.assign(stride * ky_.size(),
                    std::numeric_limits<double>::quiet_NaN());
    const auto cdf = [&](int32_t ex, int32_t ey) {
      double& value = lattice_[static_cast<size_t>(ey) * stride + ex];
      if (std::isnan(value)) value = normal.Cdf(hx_[ex], ky_[ey]);
      return value;
    };
    for (int32_t j = row_range_.first; j <= row_range_.last; ++j) {
      const IndexRange& cols = spans_[j - row_range_.first];
      const int32_t y_lo = lower_y_[j - row_range_.first];
      const int32_t y_hi = upper_y_[j - row_range_.first];
      double* row = &mass_[static_cast<size_t>(j) * grid_.nx()];
      for (int32_t i = cols.first; i <= cols.last; ++i) {
        const int32_t x_lo = lower_x_[i - col_range_.first];
        const int32_t x_hi = upper_x_[i - col_range_.first];
        const double p = cdf(x_hi, y_hi) - cdf(x_lo, y_hi) -
                         cdf(x_hi, y_lo) + cdf(x_lo, y_lo);
        if (p > 0.0) row[i] += weight * p;
      }
    }
  }

  // Calls fn(block) over the rows and columns any step reached, in
  // ascending block id.
  template <typename Fn>
  void ForEachBounded(Fn&& fn) const {
    for (int32_t j = rows_.first; j <= rows_.last; ++j) {
      for (int32_t i = cols_.first; i <= cols_.last; ++i) {
        fn(static_cast<size_t>(j) * grid_.nx() + i);
      }
    }
  }

  const geometry::GridPartition& grid_;
  const double grow_x_;
  const double grow_y_;
  std::vector<double> mass_;  // per block id
  // Rows and columns any step reached.
  IndexRange rows_{std::numeric_limits<int32_t>::max(), -1};
  IndexRange cols_{std::numeric_limits<int32_t>::max(), -1};

  // The current step: mean, standard deviations, its rows and columns,
  // and each row's columns.
  double mx_ = 0.0, my_ = 0.0, sx_ = 1.0, sy_ = 1.0;
  IndexRange row_range_{0, -1};
  IndexRange col_range_{0, -1};
  std::vector<IndexRange> spans_;
  // Buffers reused across steps.
  std::vector<double> px_;
  std::vector<double> hx_, ky_;
  std::vector<int32_t> lower_x_, upper_x_, lower_y_, upper_y_;
  std::vector<double> lattice_;
};

bool SameGaussian(const Prediction& a, const Prediction& b) {
  return a.mean.x == b.mean.x && a.mean.y == b.mean.y &&
         a.cov_xx == b.cov_xx && a.cov_xy == b.cov_xy &&
         a.cov_yy == b.cov_yy;
}

}  // namespace

double BivariateNormalCdf(double h, double k, double rho) {
  MARS_CHECK_GE(rho, -1.0);
  MARS_CHECK_LE(rho, 1.0);
  return BivariateNormal(rho).Cdf(h, k);
}

BlockProbabilities ComputeBlockProbabilities(
    const PositionPredictor& predictor, const geometry::GridPartition& grid,
    const GridProbabilityOptions& options) {
  MARS_CHECK_GE(options.horizon, 1);
  const std::vector<Prediction> path = predictor.PredictPath(options.horizon);
  MARS_CHECK_EQ(path.size(), static_cast<size_t>(options.horizon));
  FieldAccumulator field(grid, options);
  double weight = 1.0;
  for (size_t s = 0; s < path.size();) {
    // A run of identical steps (a cold predictor repeats its prior at
    // every step) is integrated once, with the run's summed weight.
    double run_weight = 0.0;
    size_t e = s;
    do {
      run_weight += weight;
      weight *= options.step_discount;
      ++e;
    } while (e < path.size() && SameGaussian(path[e], path[s]));
    field.Add(path[s], run_weight);
    s = e;
  }
  return field.Finish();
}

}  // namespace mars::motion
