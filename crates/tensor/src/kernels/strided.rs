//! Row-walking kernels for broadcasting, broadcast reduction and axis
//! permutation.
//!
//! Each kernel takes per-axis strides computed once per call (a broadcast
//! axis has stride 0) and walks the output — or, for the reduction, the
//! source — row by row: a counter over the leading axes advances one base
//! offset per operand, and the last axis runs as a plain loop over a
//! contiguous row. No index vector is built per element.
//!
//! Every output element sees the same operands in the same order as the
//! per-element loops in [`super::reference`], so the results match them bit
//! for bit; in particular [`reduce_into`] adds each destination's terms in
//! ascending source offset.

/// Splits `dims` into its leading axes and the length of its last axis. A
/// rank-0 shape is one row of length 1.
fn rows_of(dims: &[usize]) -> (&[usize], usize) {
    match dims.split_last() {
        Some((&last, lead)) => (lead, last),
        None => (&[], 1),
    }
}

/// Calls `row(bases)` once per row of the index space whose leading axes are
/// `lead`, in ascending row order, where `bases[n]` is the offset of the
/// row's first element under `strides[n]` (one stride per axis; entries past
/// `lead.len()` are ignored). Nothing is called when a leading axis has
/// length 0.
fn for_each_row<const N: usize>(
    lead: &[usize],
    strides: [&[usize]; N],
    mut row: impl FnMut([usize; N]),
) {
    if lead.contains(&0) {
        return;
    }
    let mut index = vec![0usize; lead.len()];
    let mut bases = [0usize; N];
    loop {
        row(bases);
        // Advance the odometer: bump the innermost leading axis, carrying
        // into the next one out whenever an axis wraps to 0.
        let mut axis = lead.len();
        loop {
            if axis == 0 {
                return;
            }
            axis -= 1;
            index[axis] += 1;
            if index[axis] < lead[axis] {
                for (base, s) in bases.iter_mut().zip(strides) {
                    *base += s[axis];
                }
                break;
            }
            index[axis] = 0;
            for (base, s) in bases.iter_mut().zip(strides) {
                *base -= s[axis] * (lead[axis] - 1);
            }
        }
    }
}

/// `out[i] = f(a[i'], b[i''])` over the broadcast shape `out_dims`, where
/// `a_strides` and `b_strides` (one per output axis, 0 on broadcast axes)
/// map an output index to each operand's offset.
pub(crate) fn broadcast_zip<F: Fn(f32, f32) -> f32>(
    a: &[f32],
    a_strides: &[usize],
    b: &[f32],
    b_strides: &[usize],
    out_dims: &[usize],
    f: F,
) -> Vec<f32> {
    let mut out = vec![0.0f32; out_dims.iter().product()];
    if out.is_empty() {
        return out;
    }
    let (lead, last) = rows_of(out_dims);
    // A contiguous tensor's last axis has stride 1 unless it is broadcast.
    let a_step = a_strides.last().copied().unwrap_or(0);
    let b_step = b_strides.last().copied().unwrap_or(0);
    let mut rows = out.chunks_exact_mut(last);
    for_each_row(lead, [a_strides, b_strides], |[ai, bi]| {
        let out_row = rows.next().expect("one output row per leading index");
        match (a_step, b_step) {
            (0, 0) => out_row.fill(f(a[ai], b[bi])),
            (0, _) => {
                let x = a[ai];
                for (o, &y) in out_row.iter_mut().zip(&b[bi..bi + last]) {
                    *o = f(x, y);
                }
            }
            (_, 0) => {
                let y = b[bi];
                for (o, &x) in out_row.iter_mut().zip(&a[ai..ai + last]) {
                    *o = f(x, y);
                }
            }
            _ => {
                for ((o, &x), &y) in out_row
                    .iter_mut()
                    .zip(&a[ai..ai + last])
                    .zip(&b[bi..bi + last])
                {
                    *o = f(x, y);
                }
            }
        }
    });
    out
}

/// Adds every element of `src` (shape `src_dims`) into `dst`, at the offset
/// `dst_strides` (one per source axis, 0 on the axes `dst` sums over) maps
/// its index to. Source elements are visited in ascending offset, so each
/// destination adds its terms in that order onto its current value.
pub(crate) fn reduce_into(src: &[f32], src_dims: &[usize], dst: &mut [f32], dst_strides: &[usize]) {
    if src.is_empty() {
        return;
    }
    let (lead, last) = rows_of(src_dims);
    let step = dst_strides.last().copied().unwrap_or(0);
    let mut rows = src.chunks_exact(last);
    for_each_row(lead, [dst_strides], |[di]| {
        let src_row = rows.next().expect("one source row per leading index");
        if step == 0 {
            let acc = &mut dst[di];
            for &x in src_row {
                *acc += x;
            }
        } else {
            for (d, &x) in dst[di..di + last].iter_mut().zip(src_row) {
                *d += x;
            }
        }
    });
}

/// Gathers `src` into a new contiguous tensor of shape `out_dims`, where
/// `src_strides` (one per output axis) maps an output index to its source
/// offset — an axis permutation when the strides are the source's own,
/// reordered.
pub(crate) fn gather(src: &[f32], src_strides: &[usize], out_dims: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; out_dims.iter().product()];
    if out.is_empty() {
        return out;
    }
    let (lead, last) = rows_of(out_dims);
    let step = src_strides.last().copied().unwrap_or(1);
    let mut rows = out.chunks_exact_mut(last);
    for_each_row(lead, [src_strides], |[si]| {
        let out_row = rows.next().expect("one output row per leading index");
        if step == 1 {
            out_row.copy_from_slice(&src[si..si + last]);
        } else {
            for (o, &x) in out_row.iter_mut().zip(src[si..].iter().step_by(step)) {
                *o = x;
            }
        }
    });
    out
}
