//! ASCII renderers for figures: the figure binaries, the examples and
//! the service dashboard print these so runs are inspectable without any
//! plotting stack.

/// Shade ramp used by [`render_heatmap`], darkest last.
const RAMP: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Renders a line chart of `series` into `width x height` characters.
///
/// Points are column-averaged when the series is longer than `width`.
/// A `*` marks each sampled level. Returns a multi-line string, highest
/// values at the top, with a y-axis legend.
pub fn render_line_chart(series: &[f64], width: usize, height: usize) -> String {
    assert!(width >= 2 && height >= 2, "chart too small");
    if series.is_empty() {
        return String::from("(empty series)\n");
    }
    // Downsample to `width` columns by averaging.
    let cols: Vec<f64> = (0..width)
        .map(|c| {
            let lo = c * series.len() / width;
            let hi = (((c + 1) * series.len()) / width).max(lo + 1);
            let slice = &series[lo..hi.min(series.len())];
            slice.iter().sum::<f64>() / slice.len() as f64
        })
        .collect();
    let max = cols.iter().cloned().fold(f64::MIN, f64::max);
    let min = cols.iter().cloned().fold(f64::MAX, f64::min);
    let span = if (max - min).abs() < f64::EPSILON {
        1.0
    } else {
        max - min
    };
    let mut rows = vec![vec![' '; width]; height];
    for (c, &v) in cols.iter().enumerate() {
        let level = ((v - min) / span * (height - 1) as f64).round() as usize;
        rows[height - 1 - level][c] = '*';
    }
    let mut out = String::with_capacity((width + 16) * height);
    for (i, row) in rows.iter().enumerate() {
        let label = if i == 0 {
            format!("{max:>10.2} |")
        } else if i == height - 1 {
            format!("{min:>10.2} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

/// Renders several series superimposed (Figure 5, top row), one glyph per
/// series. All series share the chart's y-scale.
pub fn render_multi_chart(series: &[(&str, &[f64])], width: usize, height: usize) -> String {
    assert!(width >= 2 && height >= 2, "chart too small");
    let glyphs = ['*', 'o', '+', 'x', '~', '^'];
    let global_max = series
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .fold(f64::MIN, f64::max);
    let global_min = series
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .fold(f64::MAX, f64::min);
    if series.iter().all(|(_, s)| s.is_empty()) {
        return String::from("(empty series)\n");
    }
    let span = if (global_max - global_min).abs() < f64::EPSILON {
        1.0
    } else {
        global_max - global_min
    };
    let mut rows = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        if s.is_empty() {
            continue;
        }
        let glyph = glyphs[si % glyphs.len()];
        #[allow(clippy::needless_range_loop)] // `rows` is indexed by derived `level`, not `c`
        for c in 0..width {
            let lo = c * s.len() / width;
            let hi = (((c + 1) * s.len()) / width).max(lo + 1);
            let slice = &s[lo..hi.min(s.len())];
            let v = slice.iter().sum::<f64>() / slice.len() as f64;
            let level = ((v - global_min) / span * (height - 1) as f64).round() as usize;
            rows[height - 1 - level][c] = glyph;
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let label = if i == 0 {
            format!("{global_max:>10.2} |")
        } else if i == height - 1 {
            format!("{global_min:>10.2} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", glyphs[i % glyphs.len()], name))
        .collect();
    out.push_str(&format!("{:>12}{}\n", "", legend.join("   ")));
    out
}

/// Renders per-node counts laid out row-major, `width` cells to a row
/// (Figure 5, bottom row), one shaded character per cell, normalised to
/// the largest count.
pub fn render_heatmap(counts: &[u64], width: usize) -> String {
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::with_capacity(counts.len() + 3 * counts.len().div_ceil(width));
    for row in counts.chunks(width) {
        out.push('|');
        for &v in row {
            let idx = ((v * (RAMP.len() as u64 - 1)) + max / 2) / max;
            out.push(RAMP[idx as usize]);
        }
        out.push_str("|\n");
    }
    out
}

/// Renders a log-log scatter table (Figure 4 style): one row per x value,
/// one column per labelled series, `NaN`-safe.
pub fn render_loglog_table(x_label: &str, xs: &[usize], series: &[(&str, &[f64])]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{x_label:>12}"));
    for (name, _) in series {
        out.push_str(&format!("  {name:>18}"));
    }
    out.push('\n');
    for (i, &x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:>12}"));
        for (_, ys) in series {
            match ys.get(i) {
                Some(v) if v.is_finite() => out.push_str(&format!("  {v:>18.6}")),
                _ => out.push_str(&format!("  {:>18}", "-")),
            }
        }
        out.push('\n');
    }
    out
}
