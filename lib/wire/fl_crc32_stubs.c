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
   allocates nor raises, and the caller has already checked the range. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t crc_table[16][256];

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
  while (len-- > 0)
    crc = crc_table[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return (intnat)crc;
}

CAMLprim value fl_crc32_run_byte(value s, value pos, value len, value crc)
{
  return Val_long(fl_crc32_run(s, Long_val(pos), Long_val(len), Long_val(crc)));
}
