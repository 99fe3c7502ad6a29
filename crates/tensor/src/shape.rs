//! Shape arithmetic: dimensions, strides, broadcasting and index math.

use crate::TensorError;

/// The shape of a [`crate::Tensor`]: an ordered list of dimension sizes.
///
/// Tensors are stored row-major (C order) and contiguous, so strides are
/// always derivable from the dimensions. `Shape` centralises the index
/// arithmetic (flattening, unflattening, broadcasting) used by every
/// operation in the crate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimensions.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Returns the scalar shape (rank 0).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (1 for a scalar shape).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size along `axis`.
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange {
                op: "dim",
                axis,
                rank: self.rank(),
            })
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a linear offset.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank or any
    /// component is out of range.
    pub fn flatten_index(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        let strides = self.strides();
        let mut offset = 0usize;
        for (axis, (&i, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.dims.clone(),
                });
            }
            offset += i * strides[axis];
        }
        Ok(offset)
    }

    /// Unflattens a linear offset into a multi-dimensional index.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if `offset >= numel` (every
    /// offset, for a shape with a length-0 axis).
    pub fn unflatten_index(&self, offset: usize) -> Result<Vec<usize>, TensorError> {
        if offset >= self.numel() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![offset],
                shape: self.dims.clone(),
            });
        }
        let mut remaining = offset;
        let strides = self.strides();
        let mut index = vec![0usize; self.rank()];
        for axis in 0..self.rank() {
            index[axis] = remaining / strides[axis];
            remaining %= strides[axis];
        }
        Ok(index)
    }

    /// Computes the broadcast shape of `self` and `other` following NumPy
    /// semantics: trailing dimensions must be equal or one of them must be 1,
    /// and a length-1 axis takes the other side's length, even 0.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible.
    pub fn broadcast_with(&self, other: &Shape) -> Result<Shape, TensorError> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0usize; rank];
        for (i, d) in dims.iter_mut().enumerate() {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.dims[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.dims[i - (rank - other.rank())]
            };
            *d = match (a, b) {
                (1, b) => b,
                (a, 1) => a,
                (a, b) if a == b => a,
                _ => {
                    return Err(TensorError::ShapeMismatch {
                        op: "broadcast",
                        lhs: self.dims.clone(),
                        rhs: other.dims.clone(),
                    })
                }
            };
        }
        Ok(Shape { dims })
    }

    /// Maps an index in the broadcast output shape back to a linear offset in
    /// a tensor of this (possibly smaller) shape.
    pub fn broadcast_source_offset(&self, out_index: &[usize]) -> usize {
        let strides = self.strides();
        let pad = out_index.len() - self.rank();
        let mut offset = 0usize;
        for axis in 0..self.rank() {
            let out_i = out_index[axis + pad];
            let i = if self.dims[axis] == 1 { 0 } else { out_i };
            offset += i * strides[axis];
        }
        offset
    }

    /// Per-axis strides for reading this shape's data along a broadcast
    /// shape of rank `out_rank` (at least this shape's rank): the row-major
    /// stride on every axis this shape holds at full length, 0 on the
    /// leading axes it lacks and on its length-1 axes.
    pub(crate) fn broadcast_strides(&self, out_rank: usize) -> Vec<usize> {
        let pad = out_rank - self.rank();
        let mut strides = vec![0usize; out_rank];
        for (axis, stride) in self.strides().into_iter().enumerate() {
            if self.dims[axis] != 1 {
                strides[axis + pad] = stride;
            }
        }
        strides
    }

    /// Whether `self` and `other` have identical dimensions.
    pub fn same_dims(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }

    /// Shape with `axis` removed (used by reductions with `keep_dims=false`).
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn remove_axis(&self, axis: usize) -> Result<Shape, TensorError> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                op: "remove_axis",
                axis,
                rank: self.rank(),
            });
        }
        let mut dims = self.dims.clone();
        dims.remove(axis);
        Ok(Shape { dims })
    }

    /// Shape with `axis` set to 1 (used by reductions with `keep_dims=true`).
    ///
    /// # Errors
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn collapse_axis(&self, axis: usize) -> Result<Shape, TensorError> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                op: "collapse_axis",
                axis,
                rank: self.rank(),
            });
        }
        let mut dims = self.dims.clone();
        dims[axis] = 1;
        Ok(Shape { dims })
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let s = Shape::new(&[3, 4, 5]);
        for offset in 0..s.numel() {
            let idx = s.unflatten_index(offset).unwrap();
            assert_eq!(s.flatten_index(&idx).unwrap(), offset);
        }
    }

    #[test]
    fn flatten_rejects_out_of_bounds() {
        let s = Shape::new(&[2, 2]);
        assert!(s.flatten_index(&[2, 0]).is_err());
        assert!(s.flatten_index(&[0]).is_err());
        assert!(s.unflatten_index(4).is_err());
        assert!(Shape::new(&[2, 0]).unflatten_index(0).is_err());
        assert!(Shape::new(&[0]).unflatten_index(0).is_err());
        assert_eq!(
            Shape::scalar().unflatten_index(0).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn broadcast_same_shape() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[2, 3]);
        assert_eq!(a.broadcast_with(&b).unwrap(), a);
    }

    #[test]
    fn broadcast_with_ones() {
        let a = Shape::new(&[4, 1, 3]);
        let b = Shape::new(&[2, 3]);
        assert_eq!(a.broadcast_with(&b).unwrap(), Shape::new(&[4, 2, 3]));
        let empty = Shape::new(&[0]);
        assert_eq!(Shape::new(&[1]).broadcast_with(&empty).unwrap(), empty);
        assert_eq!(empty.broadcast_with(&Shape::new(&[1])).unwrap(), empty);
    }

    #[test]
    fn broadcast_scalar() {
        let a = Shape::new(&[2, 3]);
        let s = Shape::scalar();
        assert_eq!(a.broadcast_with(&s).unwrap(), a);
        assert_eq!(s.broadcast_with(&a).unwrap(), a);
    }

    #[test]
    fn broadcast_incompatible() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[4, 3]);
        assert!(a.broadcast_with(&b).is_err());
        assert!(Shape::new(&[2]).broadcast_with(&Shape::new(&[0])).is_err());
    }

    #[test]
    fn broadcast_source_offset_maps_ones_to_zero() {
        let small = Shape::new(&[1, 3]);
        // Output shape [2, 3]: row index should be ignored for `small`.
        assert_eq!(small.broadcast_source_offset(&[0, 2]), 2);
        assert_eq!(small.broadcast_source_offset(&[1, 2]), 2);
    }

    #[test]
    fn remove_and_collapse_axis() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.remove_axis(1).unwrap(), Shape::new(&[2, 4]));
        assert_eq!(s.collapse_axis(1).unwrap(), Shape::new(&[2, 1, 4]));
        assert!(s.remove_axis(3).is_err());
        assert!(s.collapse_axis(3).is_err());
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
    }
}
