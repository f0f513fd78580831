//! Column-major dense matrix container and its borrowed block views.
//!
//! Storage is a single contiguous `Vec<f64>` in column-major order
//! (Fortran/LAPACK convention), so the tile kernels translate directly from
//! the BLAS call sequences that HiCMA issues. A sub-block of that storage
//! is named by a [`MatRef`] / [`MatMut`] — rows, columns and a column
//! stride, BLAS's leading dimension — so a kernel updates a block in place
//! instead of copying it out and back.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

/// A dense, heap-allocated, column-major `f64` matrix.
///
/// Element `(i, j)` lives at linear index `i + j * rows`. The type is the
/// common currency of the whole workspace: tiles, tall-skinny low-rank
/// factors, and small recompression workspaces are all `Matrix` values.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Reuses `self`'s allocation whenever its capacity suffices.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix from a function of the index pair `(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Create a matrix that takes ownership of an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Borrow the underlying column-major buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying column-major buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[f64] {
        let start = j * self.rows;
        &self.data[start..start + self.rows]
    }

    /// Mutably borrow column `j` as a contiguous slice.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let start = j * self.rows;
        &mut self.data[start..start + self.rows]
    }

    /// Mutably borrow two distinct columns at once.
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn two_cols_mut(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(a, b, "columns must be distinct");
        let r = self.rows;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * r);
        let lo_col = &mut head[lo * r..lo * r + r];
        let hi_col = &mut tail[..r];
        if a < b {
            (lo_col, hi_col)
        } else {
            (hi_col, lo_col)
        }
    }

    /// The whole matrix as a read-only view.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef::from_slice(&self.data, self.rows, self.cols)
    }

    /// The whole matrix as a mutable view.
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_> {
        MatMut::from_slice(&mut self.data, self.rows, self.cols)
    }

    /// Copy of the sub-matrix `rows_range × cols_range` starting at `(i0, j0)`.
    pub fn submatrix(&self, i0: usize, j0: usize, nrows: usize, ncols: usize) -> Matrix {
        assert!(i0 + nrows <= self.rows && j0 + ncols <= self.cols, "submatrix out of bounds");
        let mut out = Matrix::zeros(nrows, ncols);
        for j in 0..ncols {
            let src = &self.col(j0 + j)[i0..i0 + nrows];
            out.col_mut(j).copy_from_slice(src);
        }
        out
    }

    /// Overwrite the block starting at `(i0, j0)` with `block`.
    pub fn set_submatrix(&mut self, i0: usize, j0: usize, block: &Matrix) {
        assert!(
            i0 + block.rows <= self.rows && j0 + block.cols <= self.cols,
            "set_submatrix out of bounds"
        );
        for j in 0..block.cols {
            let dst_start = (j0 + j) * self.rows + i0;
            self.data[dst_start..dst_start + block.rows].copy_from_slice(block.col(j));
        }
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Scale every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// `self += alpha * other`, elementwise.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "axpy shape mismatch");
        for (d, s) in self.data.iter_mut().zip(&other.data) {
            *d += alpha * s;
        }
    }

    /// Reshape in place to `rows × cols` with every entry zeroed, reusing
    /// the existing allocation whenever its capacity suffices.
    ///
    /// This is the primitive behind the kernel workspaces: a matrix that
    /// has grown to its high-water-mark size is recycled across calls
    /// without touching the heap again.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Mirror the lower triangle into the upper triangle (square matrices).
    pub fn symmetrize_from_lower(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize requires a square matrix");
        for j in 0..self.cols {
            for i in j + 1..self.rows {
                let v = self[(i, j)];
                self[(j, i)] = v;
            }
        }
    }

    /// Zero out the strict upper triangle (keep a lower-triangular factor).
    pub fn zero_upper(&mut self) {
        assert_eq!(self.rows, self.cols, "zero_upper requires a square matrix");
        for j in 1..self.cols {
            for i in 0..j.min(self.rows) {
                self[(i, j)] = 0.0;
            }
        }
    }

    /// `self * v` for a dense vector `v` (simple GEMV, used by solvers/tests).
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (j, &x) in v.iter().enumerate() {
            if x != 0.0 {
                let col = self.col(j);
                for i in 0..self.rows {
                    out[i] += col[i] * x;
                }
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(8);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if show_c < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_r < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// A borrowed read-only block of a column-major matrix: entry `(i, j)` is
/// `stride · j + i` entries past the first. `&Matrix` converts into it,
/// and every dense kernel takes its operands as `impl Into<MatRef>`.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    // Invariant: every `(i, j)` with `i < rows`, `j < cols` is a live f64
    // of the borrow `'a`, and `stride ≥ rows` when `cols > 1`.
    ptr: *const f64,
    rows: usize,
    cols: usize,
    stride: usize,
    _borrow: PhantomData<&'a [f64]>,
}

/// A borrowed mutable block of a column-major matrix; the exclusive
/// counterpart of [`MatRef`]. The splitting methods hand out blocks that
/// share no entry, which is how a kernel holds the block it reads and the
/// block it writes of one matrix at once. `&mut Matrix` converts into it.
pub struct MatMut<'a> {
    // Invariant: as for `MatRef`, and no other reference or view reaches
    // any entry of the block while `'a` lasts.
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    stride: usize,
    _borrow: PhantomData<&'a mut [f64]>,
}

// SAFETY: a `MatRef` is a shared borrow of `f64`s and a `MatMut` an
// exclusive one; they cross threads like `&[f64]` and `&mut [f64]`.
unsafe impl Send for MatRef<'_> {}
unsafe impl Sync for MatRef<'_> {}
unsafe impl Send for MatMut<'_> {}
unsafe impl Sync for MatMut<'_> {}

/// Offset of the first entry and the stride of the `nrows × ncols` block at
/// `(i0, j0)` of a `rows × cols` view, after checking that it lies inside.
/// An empty block has no entry to point at: it keeps the view's pointer
/// (offset 0) with stride 0, so no pointer ever leaves its allocation.
#[inline]
fn sub_block(
    (rows, cols, stride): (usize, usize, usize),
    (i0, j0): (usize, usize),
    (nrows, ncols): (usize, usize),
) -> (usize, usize) {
    assert!(
        i0 <= rows && nrows <= rows - i0 && j0 <= cols && ncols <= cols - j0,
        "block out of bounds"
    );
    if nrows == 0 || ncols == 0 {
        (0, 0)
    } else {
        (i0 + j0 * stride, stride)
    }
}

impl<'a> MatRef<'a> {
    /// View a contiguous column-major buffer as a `rows × cols` block (a
    /// vector is the `len × 1` case).
    #[inline]
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(rows.checked_mul(cols), Some(data.len()), "buffer length must equal rows*cols");
        Self { ptr: data.as_ptr(), rows, cols, stride: rows, _borrow: PhantomData }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column `j` as a contiguous slice.
    #[inline(always)]
    pub fn col(self, j: usize) -> &'a [f64] {
        assert!(j < self.cols, "column out of bounds");
        // SAFETY: column `j` is `rows` consecutive entries of the block.
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.stride), self.rows) }
    }

    /// The `nrows × ncols` block whose first entry is `(i0, j0)`.
    #[inline]
    pub fn block(self, i0: usize, j0: usize, nrows: usize, ncols: usize) -> Self {
        let (off, stride) =
            sub_block((self.rows, self.cols, self.stride), (i0, j0), (nrows, ncols));
        // SAFETY: `off` is 0 or the offset of an entry of this view.
        Self { ptr: unsafe { self.ptr.add(off) }, rows: nrows, cols: ncols, stride, ..self }
    }

    /// Rows `r` of every column.
    #[inline]
    pub fn subrows(self, r: Range<usize>) -> Self {
        self.block(r.start, 0, r.len(), self.cols)
    }

    /// Columns `r`.
    #[inline]
    pub fn subcols(self, r: Range<usize>) -> Self {
        self.block(0, r.start, self.rows, r.len())
    }
}

impl<'a> MatMut<'a> {
    /// View a contiguous column-major buffer as a `rows × cols` block (a
    /// vector is the `len × 1` case).
    #[inline]
    pub fn from_slice(data: &'a mut [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(rows.checked_mul(cols), Some(data.len()), "buffer length must equal rows*cols");
        Self { ptr: data.as_mut_ptr(), rows, cols, stride: rows, _borrow: PhantomData }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entries between the starts of consecutive columns.
    #[inline(always)]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Pointer to entry `(0, 0)`, for the SIMD kernel.
    #[inline(always)]
    pub(crate) fn as_mut_ptr(&mut self) -> *mut f64 {
        self.ptr
    }

    /// Reborrow as a read-only view.
    #[inline(always)]
    pub fn as_ref(&self) -> MatRef<'_> {
        let Self { ptr, rows, cols, stride, .. } = *self;
        MatRef { ptr, rows, cols, stride, _borrow: PhantomData }
    }

    /// Reborrow for a shorter lifetime (a view is moved into a kernel).
    #[inline(always)]
    pub fn as_mut(&mut self) -> MatMut<'_> {
        MatMut { ..*self }
    }

    /// Column `j` as a contiguous mutable slice.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "column out of bounds");
        // SAFETY: column `j` is `rows` consecutive entries of the block,
        // borrowed exclusively through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.stride), self.rows) }
    }

    /// The `nrows × ncols` block whose first entry is `(i0, j0)`.
    #[inline]
    pub fn block(self, i0: usize, j0: usize, nrows: usize, ncols: usize) -> Self {
        let (off, stride) =
            sub_block((self.rows, self.cols, self.stride), (i0, j0), (nrows, ncols));
        // SAFETY: `off` is 0 or the offset of an entry of this view.
        Self { ptr: unsafe { self.ptr.add(off) }, rows: nrows, cols: ncols, stride, ..self }
    }

    /// Rows `r` of every column.
    #[inline]
    pub fn subrows(self, r: Range<usize>) -> Self {
        let cols = self.cols;
        self.block(r.start, 0, r.len(), cols)
    }

    /// Columns `r`.
    #[inline]
    pub fn subcols(self, r: Range<usize>) -> Self {
        let rows = self.rows;
        self.block(0, r.start, rows, r.len())
    }

    /// Rows `[0, i)` and rows `[i, rows)`: two blocks with no common entry.
    #[inline]
    pub fn split_at_row(self, i: usize) -> (Self, Self) {
        let (rows, cols) = (self.rows, self.cols);
        // The second handle on the block lives only until both are
        // narrowed to halves that share no row.
        let alias = MatMut { ..self };
        (self.block(0, 0, i, cols), alias.block(i, 0, rows - i, cols))
    }

    /// Columns `[0, j)` and columns `[j, cols)`: two blocks with no common
    /// entry.
    #[inline]
    pub fn split_at_col(self, j: usize) -> (Self, Self) {
        let (rows, cols) = (self.rows, self.cols);
        // As in `split_at_row`: the halves share no column.
        let alias = MatMut { ..self };
        (self.block(0, 0, rows, j), alias.block(0, j, rows, cols - j))
    }

    /// The block cut into consecutive strips of at most `width` columns.
    pub fn col_chunks(self, width: usize) -> impl Iterator<Item = MatMut<'a>> {
        let mut rest = Some(self);
        std::iter::from_fn(move || {
            let whole = rest.take().filter(|m| m.cols > 0)?;
            let head_cols = width.min(whole.cols);
            let (head, tail) = whole.split_at_col(head_cols);
            rest = Some(tail);
            Some(head)
        })
    }

    /// Hand the block's columns to `four` four at a time and the last
    /// `cols % 4` to `one`, as mutable slices that share no entry: the
    /// shape of a kernel that interleaves four independent column chains.
    pub(crate) fn by_fours(
        self,
        mut four: impl FnMut([&'a mut [f64]; 4]),
        mut one: impl FnMut(&'a mut [f64]),
    ) {
        let mut cols = self.col_chunks(1).map(|c| {
            // SAFETY: a one-column block is `rows` consecutive entries,
            // borrowed exclusively for `'a`.
            unsafe { std::slice::from_raw_parts_mut(c.ptr, c.rows) }
        });
        loop {
            match [cols.next(), cols.next(), cols.next(), cols.next()] {
                [Some(c0), Some(c1), Some(c2), Some(c3)] => four([c0, c1, c2, c3]),
                tail => return tail.into_iter().flatten().for_each(&mut one),
            }
        }
    }
}

impl<'a> From<&'a Matrix> for MatRef<'a> {
    #[inline]
    fn from(m: &'a Matrix) -> Self {
        m.as_ref()
    }
}

impl<'a> From<&'a mut Matrix> for MatMut<'a> {
    #[inline]
    fn from(m: &'a mut Matrix) -> Self {
        m.as_mut()
    }
}

/// Offset of entry `(i, j)` of a `rows × cols` view, checked to lie in it.
#[inline(always)]
fn entry_offset((rows, cols, stride): (usize, usize, usize), (i, j): (usize, usize)) -> usize {
    assert!(i < rows && j < cols, "index out of bounds");
    i + j * stride
}

impl std::ops::Index<(usize, usize)> for MatRef<'_> {
    type Output = f64;
    #[inline(always)]
    fn index(&self, ij: (usize, usize)) -> &f64 {
        // SAFETY: `entry_offset` checked that `ij` lies in the block.
        unsafe { &*self.ptr.add(entry_offset((self.rows, self.cols, self.stride), ij)) }
    }
}

impl std::ops::Index<(usize, usize)> for MatMut<'_> {
    type Output = f64;
    #[inline(always)]
    fn index(&self, ij: (usize, usize)) -> &f64 {
        // SAFETY: `entry_offset` checked that `ij` lies in the block.
        unsafe { &*self.ptr.add(entry_offset((self.rows, self.cols, self.stride), ij)) }
    }
}

impl std::ops::IndexMut<(usize, usize)> for MatMut<'_> {
    #[inline(always)]
    fn index_mut(&mut self, ij: (usize, usize)) -> &mut f64 {
        // SAFETY: `entry_offset` checked that `ij` lies in the block, which
        // `&mut self` borrows exclusively.
        unsafe { &mut *self.ptr.add(entry_offset((self.rows, self.cols, self.stride), ij)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_index() {
        let mut m = Matrix::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        m[(2, 1)] = 5.0;
        assert_eq!(m[(2, 1)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn from_fn_column_major_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // column-major: [ (0,0) (1,0) (0,1) (1,1) (0,2) (1,2) ]
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn identity_diag() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i + 7 * j) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn submatrix_roundtrip() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let s = m.submatrix(1, 2, 3, 2);
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        assert_eq!(s[(2, 1)], m[(3, 3)]);
        let mut m2 = Matrix::zeros(6, 6);
        m2.set_submatrix(1, 2, &s);
        assert_eq!(m2[(3, 3)], m[(3, 3)]);
        assert_eq!(m2[(0, 0)], 0.0);
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut m = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let (a, b) = m.two_cols_mut(0, 2);
        a[0] = 100.0;
        b[2] = 200.0;
        assert_eq!(m[(0, 0)], 100.0);
        assert_eq!(m[(2, 2)], 200.0);
        // reversed order
        let (c2, c1) = m.two_cols_mut(2, 1);
        c2[0] = 7.0;
        c1[0] = 8.0;
        assert_eq!(m[(0, 2)], 7.0);
        assert_eq!(m[(0, 1)], 8.0);
    }

    #[test]
    fn views_address_blocks_in_place() {
        let mut m = Matrix::from_fn(6, 5, |i, j| (10 * i + j) as f64);
        let v = m.as_ref().block(1, 2, 4, 3);
        assert_eq!((v.rows(), v.cols()), (4, 3));
        assert_eq!(v[(3, 2)], m[(4, 4)]);
        assert_eq!(v.subrows(1..3).subcols(1..2).col(0), &[23.0, 33.0]);
        // split halves are disjoint and together cover the block
        let (top, mut bottom) = m.as_mut().split_at_row(2);
        assert_eq!((top.rows(), bottom.rows()), (2, 4));
        bottom[(0, 0)] = -1.0;
        assert_eq!(top.as_ref()[(1, 4)], 14.0);
        let (left, right) = bottom.as_mut().split_at_col(4);
        assert_eq!((left.cols(), right.cols()), (4, 1));
        assert_eq!(right.as_ref().col(0), &[24.0, 34.0, 44.0, 54.0]);
        assert_eq!(m[(2, 0)], -1.0);
        let widths: Vec<usize> = m.as_mut().col_chunks(2).map(|s| s.cols()).collect();
        assert_eq!(widths, [2, 2, 1]);
        // a vector is an n × 1 view
        let mut x = [1.0, 2.0, 3.0];
        MatMut::from_slice(&mut x, 3, 1).col_mut(0)[2] = 9.0;
        assert_eq!(x, [1.0, 2.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "block out of bounds")]
    fn view_block_out_of_bounds_panics() {
        let m = Matrix::zeros(4, 4);
        let _ = m.as_ref().block(2, 2, 3, 1);
    }

    #[test]
    #[should_panic]
    fn two_cols_mut_same_panics() {
        let mut m = Matrix::zeros(2, 2);
        let _ = m.two_cols_mut(1, 1);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::identity(2);
        a.axpy(3.0, &b);
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(1, 1)], 5.0);
        a.scale(2.0);
        assert_eq!(a[(1, 1)], 10.0);
    }

    #[test]
    fn matvec_basic() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j + 1) as f64);
        // [1 2 3; 4 5 6] * [1,1,1] = [6, 15]
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn symmetrize_and_zero_upper() {
        let mut m = Matrix::from_fn(3, 3, |i, j| if i >= j { (i * 3 + j) as f64 } else { -1.0 });
        m.symmetrize_from_lower();
        assert_eq!(m[(0, 2)], m[(2, 0)]);
        assert_eq!(m[(1, 2)], m[(2, 1)]);
        m.zero_upper();
        assert_eq!(m[(0, 2)], 0.0);
        assert_ne!(m[(2, 0)], 0.0);
    }
}
