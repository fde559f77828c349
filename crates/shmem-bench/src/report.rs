//! Paper-style table rendering, CSV export, and observability reports.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use ntb_sim::{MetricsRegistry, OpClass};

/// One curve of a figure: a name plus one value per x-axis point.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. "DMA 1 hop").
    pub name: String,
    /// One value per size, in figure order.
    pub values: Vec<f64>,
}

impl Series {
    /// Construct from a name and values.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Series {
        Series { name: name.into(), values }
    }
}

/// Render a figure as an aligned text table: one row per x label, one
/// column per series — the textual equivalent of the paper's plots.
pub fn render_series_table(title: &str, x_labels: &[String], series: &[Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let label_w = x_labels.iter().map(|l| l.len()).max().unwrap_or(4).max(8);
    let col_w = series.iter().map(|s| s.name.len()).max().unwrap_or(8).max(12);
    let _ = write!(out, "{:<label_w$}", "size");
    for s in series {
        let _ = write!(out, "  {:>col_w$}", s.name);
    }
    let _ = writeln!(out);
    for (i, label) in x_labels.iter().enumerate() {
        let _ = write!(out, "{label:<label_w$}");
        for s in series {
            match s.values.get(i) {
                Some(v) => {
                    let _ = write!(out, "  {:>col_w$.1}", v);
                }
                None => {
                    let _ = write!(out, "  {:>col_w$}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Render the same data as CSV (`size,<series...>`).
pub fn render_csv(x_labels: &[String], series: &[Series]) -> String {
    let mut out = String::new();
    let _ = write!(out, "size");
    for s in series {
        let _ = write!(out, ",{}", s.name);
    }
    let _ = writeln!(out);
    for (i, label) in x_labels.iter().enumerate() {
        let _ = write!(out, "{label}");
        for s in series {
            match s.values.get(i) {
                Some(v) => {
                    let _ = write!(out, ",{v:.3}");
                }
                None => {
                    let _ = write!(out, ",");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Render the per-PE metrics registries gathered while tracing was on:
/// one latency line per op class with traffic, then the per-link frame
/// and recovery counters. The numeric companion to a trace dump.
pub fn render_metrics_report(
    title: &str,
    registries: &[std::sync::Arc<MetricsRegistry>],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for (pe, reg) in registries.iter().enumerate() {
        for class in OpClass::ALL {
            let h = reg.op(class);
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  pe {pe} {:<7} count={:<6} mean={:.1}us p50<={}us p99<={}us max={}us",
                class.name(),
                h.count(),
                h.mean_us(),
                h.quantile_us(0.50),
                h.quantile_us(0.99),
                h.max_us()
            );
        }
        for link in 0..reg.link_count() {
            let Some(l) = reg.link(link) else { continue };
            // lint: relaxed-ok(report-time counter snapshot; counters are monotonic and the
            // report tolerates slight skew between them)
            let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
            let (tx, rx) = (ld(&l.frames_tx), ld(&l.frames_rx));
            let (retx, rer, crc) = (ld(&l.retransmits), ld(&l.reroutes), ld(&l.crc_rejects));
            if tx + rx + retx + rer + crc == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  pe {pe} link {link}  tx={tx} rx={rx} retransmits={retx} reroutes={rer} \
                 crc_rejects={crc}"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Vec<String>, Vec<Series>) {
        (
            vec!["1KB".into(), "2KB".into()],
            vec![
                Series::new("DMA 1 hop", vec![10.5, 20.25]),
                Series::new("memcpy 1 hop", vec![5.0, 9.0]),
            ],
        )
    }

    #[test]
    fn table_contains_everything() {
        let (labels, series) = fixture();
        let t = render_series_table("Fig X", &labels, &series);
        assert!(t.contains("Fig X"));
        assert!(t.contains("DMA 1 hop"));
        assert!(t.contains("memcpy 1 hop"));
        assert!(t.contains("1KB"));
        assert!(t.contains("10.5"));
        assert!(t.contains("20.2")); // rounded to one decimal: 20.2 or 20.3
    }

    #[test]
    fn table_rows_align() {
        let (labels, series) = fixture();
        let t = render_series_table("T", &labels, &series);
        let lines: Vec<&str> = t.lines().skip(1).collect();
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "aligned columns: {t}");
    }

    #[test]
    fn csv_shape() {
        let (labels, series) = fixture();
        let c = render_csv(&labels, &series);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "size,DMA 1 hop,memcpy 1 hop");
        assert_eq!(lines[1], "1KB,10.500,5.000");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn missing_values_render_as_blank() {
        let labels = vec!["1KB".into(), "2KB".into()];
        let series = vec![Series::new("short", vec![1.0])];
        let t = render_series_table("T", &labels, &series);
        assert!(t.contains('-'));
        let c = render_csv(&labels, &series);
        assert!(c.lines().nth(2).unwrap().ends_with(','));
    }

    #[test]
    fn metrics_report_shows_active_classes_and_links() {
        let reg = MetricsRegistry::new(2);
        reg.record_op(OpClass::Put, 12);
        reg.record_op(OpClass::Put, 20);
        let log = ntb_sim::EventLog::new(1, 16);
        ntb_sim::Obs::new(log, std::sync::Arc::clone(&reg), 0, 1).emit(
            ntb_sim::EventKind::SlotPublish,
            0,
            [0, 0],
        );
        let r = render_metrics_report("metrics", &[std::sync::Arc::clone(&reg)]);
        assert!(r.contains("pe 0 put"), "{r}");
        assert!(r.contains("count=2"), "{r}");
        assert!(r.contains("pe 0 link 1"), "{r}");
        assert!(!r.contains("barrier"), "idle classes are elided: {r}");
        assert!(!r.contains("link 0 "), "idle links are elided: {r}");
    }
}
