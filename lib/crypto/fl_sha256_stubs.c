/* SHA-256 compression (FIPS 180-4 §6.2.2) over whole 64-byte blocks.

   [fl_sha256_compress state buf off nblocks] absorbs the [nblocks]
   blocks starting at [buf + off] into the chaining state. The state is
   a 32-byte buffer holding H0..H7 big-endian, which is the digest's
   own byte layout, so finalising is a copy. Words are loaded and
   stored byte by byte, so the kernel is byte-order neutral with no
   #if and no intrinsics.

   Staging, padding, HMAC and profiling stay in sha256.ml; this stub
   only runs the rounds. It is [@@noalloc] with untagged arguments: it
   neither allocates nor raises, and the caller has checked the
   range. */

#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store_be32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

value fl_sha256_compress(value state, value buf, intnat off, intnat nblocks)
{
  unsigned char *h = Bytes_val(state);
  const unsigned char *p = (const unsigned char *)Bytes_val(buf) + off;
  uint32_t H[8], w[64];
  for (int i = 0; i < 8; i++) H[i] = load_be32(h + 4 * i);
  for (; nblocks > 0; nblocks--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t x = w[i - 15], y = w[i - 2];
      uint32_t s0 = ROTR(x, 7) ^ ROTR(x, 18) ^ (x >> 3);
      uint32_t s1 = ROTR(y, 17) ^ ROTR(y, 19) ^ (y >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = H[0], b = H[1], c = H[2], d = H[3];
    uint32_t e = H[4], f = H[5], g = H[6], hh = H[7];
    for (int i = 0; i < 64; i++) {
      uint32_t t1 = hh + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                    + ((e & f) ^ (~e & g)) + K[i] + w[i];
      uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                    + ((a & b) ^ (a & c) ^ (b & c));
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    H[0] += a; H[1] += b; H[2] += c; H[3] += d;
    H[4] += e; H[5] += f; H[6] += g; H[7] += hh;
  }
  for (int i = 0; i < 8; i++) store_be32(h + 4 * i, H[i]);
  return Val_unit;
}

CAMLprim value fl_sha256_compress_byte(value state, value buf, value off,
                                       value nblocks)
{
  return fl_sha256_compress(state, buf, Long_val(off), Long_val(nblocks));
}
