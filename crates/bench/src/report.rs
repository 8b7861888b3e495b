//! Table/series formatting shared by all figure harnesses.

/// One measured point of a latency/bandwidth sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Point {
    /// Message (or argument) size in bytes.
    pub size: usize,
    /// One-way latency in microseconds (round-trip / 2), or full
    /// round-trip for RPC figures (stated per figure).
    pub latency_us: f64,
    /// Delivered bandwidth in MB/s (user bytes / time).
    pub bandwidth_mbs: f64,
}

/// A named series of points (one curve of a paper figure).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Series {
    /// Curve label, matching the paper's legend (e.g. "DU-0copy").
    pub label: String,
    /// Measured points in size order.
    pub points: Vec<Point>,
}

impl Series {
    /// Latency at a given size, if measured.
    pub(crate) fn latency_at(&self, size: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.size == size)
            .map(|p| p.latency_us)
    }

    /// Bandwidth at a given size, if measured.
    pub(crate) fn bandwidth_at(&self, size: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.size == size)
            .map(|p| p.bandwidth_mbs)
    }

    /// The maximum bandwidth across the sweep.
    pub(crate) fn peak_bandwidth(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.bandwidth_mbs)
            .fold(0.0, f64::max)
    }
}

/// Render a figure's series as two aligned text tables (latency for
/// sizes up to [`LATENCY_CUTOFF`], bandwidth for the full sweep), in the
/// spirit of the paper's paired graphs.
pub(crate) fn render_figure(title: &str, series: &[Series]) -> String {
    let sizes = || {
        series
            .iter()
            .take(1)
            .flat_map(|s| &s.points)
            .map(|p| p.size)
    };
    // One table: a header naming each curve in `unit`, then per size up
    // to `cutoff` every curve's `value`.
    let table = |unit: &str, cutoff: usize, value: fn(&Series, usize) -> Option<f64>| {
        let mut out = format!("{:<12}", "bytes");
        for s in series {
            out.push_str(&format!("{:>14}", format!("{} {unit}", s.label)));
        }
        out.push('\n');
        for size in sizes().filter(|&size| size <= cutoff) {
            out.push_str(&format!("{size:<12}"));
            for s in series {
                match value(s, size) {
                    Some(v) => out.push_str(&format!("{v:>14.2}")),
                    None => out.push_str(&format!("{:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    };
    format!(
        "== {title} ==\n\n{}\n{}",
        table("us", LATENCY_CUTOFF, Series::latency_at),
        table("MB/s", usize::MAX, Series::bandwidth_at)
    )
}

/// The message sizes the paper's figures sweep: 4–64 bytes for the
/// latency graphs, up to 10 KB for bandwidth.
fn paper_sizes() -> Vec<usize> {
    let mut v: Vec<usize> = vec![4, 8, 16, 24, 32, 40, 48, 56, 64];
    v.extend([
        128, 256, 512, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192, 9216, 10240,
    ]);
    v
}

/// Sizes for the latency-only graphs.
const LATENCY_CUTOFF: usize = 64;

/// The sweep every latency/bandwidth figure runs: one [`Series`] per
/// labelled variant, one `cell` per paper size.
pub(crate) fn sweep<V: Copy>(
    variants: &[(V, &'static str)],
    cell: impl Fn(V, usize) -> Point,
) -> Vec<Series> {
    let series = |&(v, label): &(V, &str)| Series {
        label: label.to_string(),
        points: paper_sizes().into_iter().map(|n| cell(v, n)).collect(),
    };
    variants.iter().map(series).collect()
}

/// Picoseconds as microseconds, for rendering.
pub(crate) fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        Series {
            label: "DU-0copy".into(),
            points: vec![
                Point {
                    size: 4,
                    latency_us: 7.6,
                    bandwidth_mbs: 0.5,
                },
                Point {
                    size: 10240,
                    latency_us: 440.0,
                    bandwidth_mbs: 23.1,
                },
            ],
        }
    }

    #[test]
    fn series_lookups() {
        let s = sample();
        assert_eq!(s.latency_at(4), Some(7.6));
        assert_eq!(s.bandwidth_at(10240), Some(23.1));
        assert_eq!(s.latency_at(99), None);
        assert!((s.peak_bandwidth() - 23.1).abs() < 1e-9);
    }

    #[test]
    fn render_contains_labels_and_values() {
        let out = render_figure("Figure 3", &[sample()]);
        assert!(out.contains("Figure 3"));
        assert!(out.contains("DU-0copy us"));
        assert!(out.contains("7.60"));
        assert!(out.contains("23.10"));
        // 10240 exceeds the latency cutoff: appears once (bandwidth table).
        assert_eq!(out.matches("10240").count(), 1);
    }

    #[test]
    fn paper_sizes_are_sorted_and_bounded() {
        let v = paper_sizes();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*v.first().unwrap(), 4);
        assert_eq!(*v.last().unwrap(), 10240);
    }
}
