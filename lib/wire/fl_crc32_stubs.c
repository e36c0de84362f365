/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-16.

   Portable C: every multi-byte word is assembled from single bytes in
   little-endian order, so the kernel gives the same answer on either
   byte order with no #if and no intrinsics (compilers turn the
   assembly into one load where the host is little-endian).

   The sixteen 256-entry tables are filled by [fl_crc32_init], which
   crc32.ml calls once at module initialisation, before any domain can
   exist. There is deliberately no lazy "built yet?" flag here: two
   sweep domains racing to build a table on first use is exactly the
   bug crc32.ml's header describes.

   [fl_crc32_run] is [@@noalloc] with untagged arguments: it neither
   allocates nor raises, and the caller has already checked the range.

   [fl_crc32_zeros] advances a state over [n] zero bytes without
   reading any: a zero byte multiplies the register by x^8 modulo the
   polynomial, so [n] of them multiply it by x^(8n) (zlib's
   crc32_combine). Multiplying by a fixed x^m is linear in the state,
   so it is four lookups in a 4x256 table of that operator on each
   state byte. [fl_crc32_init] fills one such table for every run of
   16 * 2^k zero bytes, k < ZK, so a run of [n] zeros costs four
   lookups per set bit of n/16 (one for sigma = 512) plus n mod 16
   byte steps; only runs of 16 MiB and more fall back to the
   bit-serial [multmodp] for their high part. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t crc_table[16][256];
static uint32_t x2n_table[32];

#define ZK 20
static uint32_t zero_table[ZK][4][256];

/* a*b modulo the polynomial, both in reflected bit order */
static uint32_t multmodp(uint32_t a, uint32_t b)
{
  uint32_t m = 1u << 31, p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0)
        break;
    }
    m >>= 1;
    b = b & 1 ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return p;
}

/* x^(n*2^k) modulo the polynomial */
static uint32_t x2nmodp(uintnat n, unsigned k)
{
  uint32_t p = 1u << 31; /* x^0 */
  while (n) {
    if (n & 1)
      p = multmodp(x2n_table[k & 31], p);
    n >>= 1;
    k++;
  }
  return p;
}

CAMLprim value fl_crc32_init(value unit)
{
  (void)unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table[0][n] = c;
  }
  for (int k = 1; k < 16; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t p = crc_table[k - 1][n];
      crc_table[k][n] = crc_table[0][p & 0xff] ^ (p >> 8);
    }
  x2n_table[0] = 1u << 30; /* x^1 */
  for (int k = 1; k < 32; k++)
    x2n_table[k] = multmodp(x2n_table[k - 1], x2n_table[k - 1]);
  for (int k = 0; k < ZK; k++) {
    uint32_t op = x2nmodp((uintnat)16 << k, 3);
    for (int j = 0; j < 4; j++) {
      zero_table[k][j][0] = 0;
      for (int b = 1; b < 256; b++) {
        int low = b & -b;
        zero_table[k][j][b] =
            low == b ? multmodp(op, (uint32_t)b << (8 * j))
                     : zero_table[k][j][low] ^ zero_table[k][j][b ^ low];
      }
    }
  }
  return Val_unit;
}

static inline uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

/* [crc] is the running state without the final xor, returned the
   same way. */
intnat fl_crc32_run(value s, intnat pos, intnat len, intnat crc_in)
{
  const unsigned char *p = (const unsigned char *)String_val(s) + pos;
  uint32_t crc = (uint32_t)crc_in;
  while (len >= 16) {
    uint32_t a = crc ^ load_le32(p);
    uint32_t b = load_le32(p + 4);
    uint32_t c = load_le32(p + 8);
    uint32_t d = load_le32(p + 12);
    crc = crc_table[15][a & 0xff] ^ crc_table[14][(a >> 8) & 0xff]
          ^ crc_table[13][(a >> 16) & 0xff] ^ crc_table[12][a >> 24]
          ^ crc_table[11][b & 0xff] ^ crc_table[10][(b >> 8) & 0xff]
          ^ crc_table[9][(b >> 16) & 0xff] ^ crc_table[8][b >> 24]
          ^ crc_table[7][c & 0xff] ^ crc_table[6][(c >> 8) & 0xff]
          ^ crc_table[5][(c >> 16) & 0xff] ^ crc_table[4][c >> 24]
          ^ crc_table[3][d & 0xff] ^ crc_table[2][(d >> 8) & 0xff]
          ^ crc_table[1][(d >> 16) & 0xff] ^ crc_table[0][d >> 24];
    p += 16;
    len -= 16;
  }
  /* short stretches (a transaction's 13-byte head between two zero
     runs) and tails: four bytes a step, slice-by-4 */
  while (len >= 4) {
    uint32_t a = crc ^ load_le32(p);
    crc = crc_table[3][a & 0xff] ^ crc_table[2][(a >> 8) & 0xff]
          ^ crc_table[1][(a >> 16) & 0xff] ^ crc_table[0][a >> 24];
    p += 4;
    len -= 4;
  }
  while (len-- > 0)
    crc = crc_table[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return (intnat)crc;
}

CAMLprim value fl_crc32_run_byte(value s, value pos, value len, value crc)
{
  return Val_long(fl_crc32_run(s, Long_val(pos), Long_val(len), Long_val(crc)));
}

/* The state after [n] zero bytes; [crc] is a state as above. */
intnat fl_crc32_zeros(intnat crc_in, intnat n)
{
  uint32_t crc = (uint32_t)crc_in;
  if (n <= 0)
    return crc_in;
  uintnat q = (uintnat)n >> 4;
  int k = 0;
  for (; q && k < ZK; q >>= 1, k++)
    if (q & 1)
      crc = zero_table[k][0][crc & 0xff] ^ zero_table[k][1][(crc >> 8) & 0xff]
            ^ zero_table[k][2][(crc >> 16) & 0xff] ^ zero_table[k][3][crc >> 24];
  if (q) /* q * 16 * 2^k bytes left: x^(q * 2^(k+7)) */
    crc = multmodp(x2nmodp(q, k + 7), crc);
  for (int r = n & 15; r > 0; r--)
    crc = crc_table[0][crc & 0xff] ^ (crc >> 8);
  return (intnat)crc;
}

CAMLprim value fl_crc32_zeros_byte(value crc, value n)
{
  return Val_long(fl_crc32_zeros(Long_val(crc), Long_val(n)));
}
