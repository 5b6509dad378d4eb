"""
Fixed-point arithmetic on the 64-bit ring
=========================================

Every value in the protocol lives in Z_{2^64} as a two's-complement
fixed-point word. This walkthrough shows the encode/decode round trip,
why matmuls stay exact under wraparound, and what truncation does to
the fraction ladder.
"""

# %%
import numpy as np

from privtrans.ring import DEFAULT_RING, FixedTensor, mat_mul
from privtrans.securefn import SecureFnSpec, plain_apply

ring = DEFAULT_RING
print(f"ring: Z_(2^64), {ring.value_bits}-bit values, "
      f"{ring.frac_bits} fraction bits (scale {ring.scale})")

# %%
# Encoding multiplies by 2^f and wraps negatives around the modulus.
# Decoding is exact for anything on the 1/2^f grid.
vals = np.array([[1.5, -2.25, 0.00390625, -63.99609375]])
x = FixedTensor.from_float(vals, ring)
print("raw words: ", x.data[0])
print("round trip:", x.to_float()[0])

# %%
# Addition and subtraction are plain uint64 ops; the wraparound IS the
# modular reduction, so shares can be split and recombined freely.
a = FixedTensor.from_float(np.array([[100.0, -100.0]]), ring)
b = FixedTensor.from_float(np.array([[-30.5, 30.5]]), ring)
print("a + b:", (a + b).to_float()[0])
print("a - b:", (a - b).to_float()[0])

# %%
# A product of two f-bit-fraction values carries 2f fraction bits. The
# matmul below keeps every bit; only the decode changes.
c = FixedTensor.from_float(np.array([[3.0, -5.25]]), ring)
w = FixedTensor.from_float(np.array([[0.5], [2.0]]), ring)
prod = mat_mul(c, w)
print("product word:", prod.data.ravel())
print("decoded at 2f:", ring.to_signed(prod.data).ravel() / float(1 << 2 * ring.frac_bits))

# %%
# Truncation shifts the fraction ladder back down by f bits with an
# arithmetic shift, then saturates to the value range: 3*0.5 - 5.25*2.
# It is the `trunc` nonpoly stage; plain_apply runs it on plain words, as
# the plaintext reference does (the protocol runs it under a circuit).
trunc = SecureFnSpec("trunc", shift=ring.frac_bits, ring=ring)
back = ring.decode(plain_apply(trunc, prod.data))
print("truncated:", back.ravel())
print("float ref:", (np.array([[3.0, -5.25]]) @ np.array([[0.5], [2.0]])).ravel())

# %%
# The modulus leaves headroom above the nominal value range, so
# intermediate sums may exceed value_limit() without aliasing; the
# saturating truncate is what pulls results back inside the range.
big = FixedTensor.from_float(np.array([[63.0]]), ring)
doubled = big + big
print(f"63 + 63 decodes to {doubled.to_float()[0, 0]} "
      f"(nominal limit is {ring.value_limit() / ring.scale})")
sat = ring.decode(plain_apply(trunc, doubled.lshift(ring.frac_bits).data))
print("saturating truncate clamps it to", sat[0, 0])
