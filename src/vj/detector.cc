#include "vj/detector.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/logging.hh"
#include "exec/parallel.hh"

namespace incam {

Detector::Detector(const Cascade &cascade, DetectorParams params)
    : model(cascade), conf(params)
{
    incam_assert(conf.scale_factor > 1.0,
                 "scale factor must exceed 1.0, got ", conf.scale_factor);
    incam_assert(conf.adaptive_frac >= 0.0, "negative adaptive step");
}

std::vector<ScanScale>
Detector::scanScales(int width, int height) const
{
    const int base = model.baseSize();
    const int min_dim = std::min(width, height);
    const int max_window =
        static_cast<int>(conf.max_window_frac * min_dim);
    std::vector<ScanScale> scales;
    double scale = 1.0;
    for (;;) {
        const int window = static_cast<int>(std::lround(base * scale));
        if (window > max_window) {
            break;
        }
        ScanScale s;
        s.scale = scale;
        s.window = window;
        s.step = conf.stepFor(window);
        // A window larger than one image dimension (possible when
        // max_window_frac > 1) fits zero positions; the truncating
        // division alone would round -step < width-window < 0 up to
        // one position and scan out of bounds.
        s.nx = width >= window ? (width - window) / s.step + 1 : 0;
        s.ny = height >= window ? (height - window) / s.step + 1 : 0;
        scales.push_back(s);
        scale *= conf.scale_factor;
    }
    return scales;
}

std::vector<Rect>
Detector::rawHits(const ImageU8 &gray, CascadeStats *stats) const
{
    incam_assert(gray.channels() == 1, "detector expects grayscale input");
    const IntegralImage ii(gray, conf.exec);
    std::vector<Rect> hits;

    for (const ScanScale &s : scanScales(gray.width(), gray.height())) {
        // The cascade scaled for this window size, shared read-only by
        // every band.
        const ScaledCascade scaled(model, s.scale);
        // Row-band parallel scan. Hits and stats accumulate per band
        // and merge in band order, so output is identical to the serial
        // row-major scan for every thread count.
        const uint64_t bands = parallel_chunk_count(0, s.ny, conf.exec);
        std::vector<std::vector<Rect>> band_hits(bands);
        std::vector<CascadeStats> band_stats(stats ? bands : 0);

        parallel_for_chunks(
            0, s.ny, conf.exec,
            [&](uint64_t band, int64_t r0, int64_t r1) {
                CascadeStats local;
                CascadeStats *lstats = stats ? &local : nullptr;
                for (int64_t row = r0; row < r1; ++row) {
                    const int y = static_cast<int>(row) * s.step;
                    for (int col = 0; col < s.nx; ++col) {
                        const int x = col * s.step;
                        if (scaled.classify(ii, x, y, lstats)) {
                            band_hits[band].push_back(
                                Rect{x, y, s.window, s.window});
                        }
                    }
                }
                if (stats) {
                    band_stats[band] = local;
                }
            });

        for (uint64_t band = 0; band < bands; ++band) {
            hits.insert(hits.end(), band_hits[band].begin(),
                        band_hits[band].end());
            if (stats) {
                stats->merge(band_stats[band]);
            }
        }
    }
    return hits;
}

uint64_t
Detector::windowCount(int width, int height) const
{
    uint64_t windows = 0;
    for (const ScanScale &s : scanScales(width, height)) {
        windows += s.windowCount();
    }
    return windows;
}

std::vector<Detection>
groupDetections(const std::vector<Rect> &hits, double iou_threshold,
                int min_neighbors)
{
    // Union-find over pairwise-IoU edges.
    std::vector<int> parent(hits.size());
    std::iota(parent.begin(), parent.end(), 0);
    std::function<int(int)> find = [&](int a) {
        while (parent[a] != a) {
            parent[a] = parent[parent[a]];
            a = parent[a];
        }
        return a;
    };
    for (size_t i = 0; i < hits.size(); ++i) {
        for (size_t j = i + 1; j < hits.size(); ++j) {
            if (hits[i].iou(hits[j]) >= iou_threshold) {
                parent[find(static_cast<int>(i))] =
                    find(static_cast<int>(j));
            }
        }
    }

    // Average the members of each cluster.
    struct Cluster
    {
        long sx = 0, sy = 0, sw = 0, sh = 0;
        int n = 0;
    };
    std::vector<Cluster> clusters(hits.size());
    for (size_t i = 0; i < hits.size(); ++i) {
        Cluster &c = clusters[static_cast<size_t>(find(static_cast<int>(i)))];
        c.sx += hits[i].x;
        c.sy += hits[i].y;
        c.sw += hits[i].w;
        c.sh += hits[i].h;
        ++c.n;
    }

    std::vector<Detection> out;
    for (const auto &c : clusters) {
        if (c.n >= std::max(1, min_neighbors)) {
            Detection d;
            d.box = Rect{static_cast<int>(c.sx / c.n),
                         static_cast<int>(c.sy / c.n),
                         static_cast<int>(c.sw / c.n),
                         static_cast<int>(c.sh / c.n)};
            d.neighbors = c.n;
            out.push_back(d);
        }
    }
    return out;
}

std::vector<Detection>
Detector::detect(const ImageU8 &gray, CascadeStats *stats) const
{
    return groupDetections(rawHits(gray, stats), 0.3, conf.min_neighbors);
}

} // namespace incam
