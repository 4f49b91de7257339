/* Generated by ataman-cpp (approximate TinyML kernels). */
#include <stdint.h>
#include <string.h>

#if defined(__ARM_FEATURE_DSP)
#include <arm_acle.h>
#define ataman_smlad(x, y, a) __smlad((x), (y), (a))
#define ataman_smlabb(x, y, a) __smlabb((x), (y), (a))
#else
static inline int32_t ataman_smlad(uint32_t x, uint32_t y, int32_t acc) {
  int16_t xl = (int16_t)(x & 0xFFFFu), xh = (int16_t)(x >> 16);
  int16_t yl = (int16_t)(y & 0xFFFFu), yh = (int16_t)(y >> 16);
  return (int32_t)((uint32_t)acc + (uint32_t)((int32_t)xl * yl) +
                   (uint32_t)((int32_t)xh * yh));
}
static inline int32_t ataman_smlabb(uint32_t x, uint32_t y, int32_t acc) {
  int16_t xl = (int16_t)(x & 0xFFFFu), yl = (int16_t)(y & 0xFFFFu);
  return (int32_t)((uint32_t)acc + (uint32_t)((int32_t)xl * yl));
}
#endif

static inline uint32_t ataman_pack(int16_t hi, int16_t lo) {
  return ((uint32_t)(uint16_t)hi << 16) | (uint16_t)lo;
}
static inline int32_t ataman_rdivpot(int32_t x, int e) {
  if (e == 0) return x;
  int32_t mask = (int32_t)((1ll << e) - 1);
  int32_t rem = x & mask;
  int32_t thr = (mask >> 1) + (x < 0 ? 1 : 0);
  return (x >> e) + (rem > thr ? 1 : 0);
}
static inline int32_t ataman_srdhm(int32_t a, int32_t b) {
  if (a == b && a == (int32_t)0x80000000) return 0x7FFFFFFF;
  int64_t ab = (int64_t)a * (int64_t)b;
  int32_t nudge = ab >= 0 ? (1 << 30) : (1 - (1 << 30));
  return (int32_t)((ab + nudge) / (1ll << 31));
}
static inline int32_t ataman_requant(int32_t x, int32_t mult, int32_t shift) {
  int ls = shift > 0 ? shift : 0;
  int rs = shift > 0 ? 0 : -shift;
  int64_t wide = (int64_t)x << ls;
  int32_t pre = wide < (int64_t)-2147483648 ? (int32_t)-2147483648
              : wide > 2147483647 ? 2147483647 : (int32_t)wide;
  return ataman_rdivpot(ataman_srdhm(pre, mult), rs);
}
static inline int8_t ataman_clamp8(int32_t v, int32_t lo, int32_t hi) {
  if (v < lo) v = lo;
  if (v > hi) v = hi;
  return (int8_t)v;
}

/* conv0: 32x32x3 -> 32x32x8, k=3 s=1 p=1; retained static ops: 216/216 (weights hardwired, re-paired after skipping) */
static void ataman_conv0(const int8_t* in, int8_t* out) {
  int16_t col[27];
  for (int oy = 0; oy < 32; ++oy) {
    for (int ox = 0; ox < 32; ++ox) {
      int idx = 0;
      for (int ky = 0; ky < 3; ++ky) {
        int iy = oy * 1 - 1 + ky;
        for (int kx = 0; kx < 3; ++kx) {
          int ix = ox * 1 - 1 + kx;
          int inside = iy >= 0 && iy < 32 && ix >= 0 && ix < 32;
          for (int c = 0; c < 3; ++c, ++idx)
            col[idx] = inside ? (int16_t)((int32_t)in[(iy * 32 + ix) * 3 + c] - (-128)) : 0;
        }
      }
      int8_t* orow = out + (oy * 32 + ox) * 8;
      int32_t acc;
      /* channel 0 */
      acc = 10525;
      acc = ataman_smlad(0xfff5ffe8u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xffee002eu, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0x27ffb6u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffeaffd3u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0x200060u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0x57ffb5u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffeb001au, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffd8002eu, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0x3affceu, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xff9dffe8u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffa3003eu, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0x23ffcau, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xffd7ffc9u, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlabb(ataman_pack(0, 127), ataman_pack(0, col[26]), acc);
      orow[0] = ataman_clamp8(ataman_requant(acc, 1549358666, -8) + (-128), -128, 127);
      /* channel 1 */
      acc = -25106;
      acc = ataman_smlad(0xffea0044u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0x70ffebu, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffd2ffe7u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffd3003cu, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0x4bff9au, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffed0028u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffdb0074u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0x59ffe6u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffbc0013u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xfff80016u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0x58ffd0u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xffcbffcbu, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xffe0007fu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlabb(ataman_pack(0, -20), ataman_pack(0, col[26]), acc);
      orow[1] = ataman_clamp8(ataman_requant(acc, 1691589709, -8) + (-128), -128, 127);
      /* channel 2 */
      acc = -6641;
      acc = ataman_smlad(0x41fff0u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xff81ffefu, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffd90078u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0x58ff96u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0x120013u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffba0065u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0x29ffeau, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffd6ffcfu, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0x4006bu, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0x66ffc0u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffe5ffc8u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0x1a006eu, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xff99u, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlabb(ataman_pack(0, -27), ataman_pack(0, col[26]), acc);
      orow[2] = ataman_clamp8(ataman_requant(acc, 1343150151, -8) + (-128), -128, 127);
      /* channel 3 */
      acc = -2729;
      acc = ataman_smlad(0x3bffe5u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xfff0001eu, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffdc0011u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffaafffcu, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xffe9ffafu, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffebffb5u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0x3ffebu, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0x20001fu, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0x1d0018u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xffe9ffe2u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xfff1ffccu, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xffe6ffffu, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xff81ffe6u, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlabb(ataman_pack(0, -48), ataman_pack(0, col[26]), acc);
      orow[3] = ataman_clamp8(ataman_requant(acc, 1733943719, -8) + (-128), -128, 127);
      /* channel 4 */
      acc = -428;
      acc = ataman_smlad(0x2bffe8u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xffb1ffbdu, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffac0034u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0x45001eu, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0x3dffd5u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffe00020u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xfff10023u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0x1dff81u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0x30006u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xffff005cu, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0x47ffb4u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0x1bffdbu, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xff83ffbfu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlabb(ataman_pack(0, -10), ataman_pack(0, col[26]), acc);
      orow[4] = ataman_clamp8(ataman_requant(acc, 1305171214, -8) + (-128), -128, 127);
      /* channel 5 */
      acc = -5544;
      acc = ataman_smlad(0x4ffd5u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xffd7005cu, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xfff9003du, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0x45ff81u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0x23ffdeu, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffa4fff7u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffa50033u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0x200052u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffac001au, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0x240004u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffaf0018u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xffc2fff8u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xfff9ffacu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlabb(ataman_pack(0, -35), ataman_pack(0, col[26]), acc);
      orow[5] = ataman_clamp8(ataman_requant(acc, 1431213727, -8) + (-128), -128, 127);
      /* channel 6 */
      acc = -15458;
      acc = ataman_smlad(0x14fff4u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0x1ffd0u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffcd0031u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffcfff97u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xffe4ffebu, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0x70028u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0x15ffc0u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xff810019u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffd1ffd8u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0x270031u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffbafffbu, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xff910007u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xffdc000fu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlabb(ataman_pack(0, -51), ataman_pack(0, col[26]), acc);
      orow[6] = ataman_clamp8(ataman_requant(acc, 1291851088, -8) + (-128), -128, 127);
      /* channel 7 */
      acc = 1674;
      acc = ataman_smlad(0xffcau, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xc0001u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0x320010u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffe6ffa6u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0x2004bu, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffdf001fu, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffc8ffdcu, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffea0022u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xfff6ff81u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0x2ffe9u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0x49ffeeu, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xffdc0025u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xcff8du, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlabb(ataman_pack(0, 83), ataman_pack(0, col[26]), acc);
      orow[7] = ataman_clamp8(ataman_requant(acc, 1335365025, -8) + (-128), -128, 127);
    }
  }
}

static void ataman_pool0(const int8_t* in, int8_t* out) {
  for (int oy = 0; oy < 16; ++oy)
    for (int ox = 0; ox < 16; ++ox)
      for (int ch = 0; ch < 8; ++ch) {
        int8_t best = -128;
        for (int ky = 0; ky < 2; ++ky) {
          int iy = oy * 2 + ky;
          for (int kx = 0; kx < 2; ++kx) {
            int ix = ox * 2 + kx;
            int8_t v = in[(iy * 32 + ix) * 8 + ch];
            if (v > best) best = v;
          }
        }
        out[(oy * 16 + ox) * 8 + ch] = best;
      }
}

/* conv1: 16x16x8 -> 16x16x12, k=3 s=1 p=1; retained static ops: 864/864 (weights hardwired, re-paired after skipping) */
static void ataman_conv1(const int8_t* in, int8_t* out) {
  int16_t col[72];
  for (int oy = 0; oy < 16; ++oy) {
    for (int ox = 0; ox < 16; ++ox) {
      int idx = 0;
      for (int ky = 0; ky < 3; ++ky) {
        int iy = oy * 1 - 1 + ky;
        for (int kx = 0; kx < 3; ++kx) {
          int ix = ox * 1 - 1 + kx;
          int inside = iy >= 0 && iy < 16 && ix >= 0 && ix < 16;
          for (int c = 0; c < 8; ++c, ++idx)
            col[idx] = inside ? (int16_t)((int32_t)in[(iy * 16 + ix) * 8 + c] - (-128)) : 0;
        }
      }
      int8_t* orow = out + (oy * 16 + ox) * 12;
      int32_t acc;
      /* channel 0 */
      acc = -8315;
      acc = ataman_smlad(0xd001bu, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xfff9000fu, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffb60026u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0x2ffb7u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xffc3ffaeu, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0x4bffb3u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xff94001du, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffc4fffbu, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffe7ffd6u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xcffd1u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffbeffddu, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xffd6ff85u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0x1effc6u, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0x16000bu, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0xfff8ffcau, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0xffe6ffd2u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0xffb70000u, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0x1dffadu, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xfff20053u, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xffa0ffe7u, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0xfffaff8fu, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0xfffd0036u, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0xffe50014u, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xff91ffceu, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xffcdff81u, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0xffc2ffe7u, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xffbe0005u, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xffdeffeeu, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xffcbff96u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0xffdfffb7u, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0xffddffe4u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xffc70009u, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0x7ff96u, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0x31001eu, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0xfffe000bu, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0xffe6fff3u, ataman_pack(col[71], col[70]), acc);
      orow[0] = ataman_clamp8(ataman_requant(acc, 1612112190, -8) + (-128), -128, 127);
      /* channel 1 */
      acc = -5976;
      acc = ataman_smlad(0xffeeffcfu, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xfff8ffc1u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffe2fffdu, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffd0000du, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xffabff85u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xbffddu, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0x2f0025u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffc90040u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffc2ffcau, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0x30fff8u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffe4ffe6u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xfff7ffceu, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xfff7ffdfu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0x2afff6u, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0xffc9ffdeu, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0xfff70024u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0x34ffacu, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0x27ffd0u, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xffbf0022u, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xffdaff81u, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0x30fff6u, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0xffe6000cu, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0xff9f0047u, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0x15fff9u, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xffe6fff1u, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0xffae0008u, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xffff0010u, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0x2affc8u, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0x1eff93u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0x7001bu, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0xfffcfff8u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xffd6000bu, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xfff7ff99u, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0xfff7ffb8u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0xffaf0014u, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0x7ff92u, ataman_pack(col[71], col[70]), acc);
      orow[1] = ataman_clamp8(ataman_requant(acc, 1734773885, -8) + (-128), -128, 127);
      /* channel 2 */
      acc = -8705;
      acc = ataman_smlad(0xffeaff81u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0x1cffe3u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffcf001cu, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffef001fu, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0x1cffdbu, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffe70004u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffe5001fu, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffb80023u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffb7ffe0u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0x18ffadu, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffb9ffd9u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xffabffd3u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xfff8ffebu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0x34fff7u, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0xffee001fu, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0xffe00000u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0x8ffe6u, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0x1f003eu, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xffc30019u, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xff9e0003u, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0xffcdff94u, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0x18ffe3u, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0xb001au, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xffb0ffefu, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xffd4ffd1u, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0x1affa5u, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xdffc5u, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xff98ffc5u, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xfff4ffbcu, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0xffddffcdu, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0xffe70004u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xffaffff5u, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xffc40015u, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0xfff3ffc1u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0x90036u, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0xfff1ffcdu, ataman_pack(col[71], col[70]), acc);
      orow[2] = ataman_clamp8(ataman_requant(acc, 2066377292, -8) + (-128), -128, 127);
      /* channel 3 */
      acc = -2441;
      acc = ataman_smlad(0xffc9ffbcu, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xd0019u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffe8ffdcu, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xfffbfffeu, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xfff6ffd0u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffacffd1u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0x3dffd7u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0x32fff1u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffccfff1u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xffec001eu, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffbe002eu, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xafff1u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0x40fff7u, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0xffbb003fu, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0xffee0005u, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0x11u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0x3affe4u, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0xffc2fff2u, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xff81fffau, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xd0024u, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0xffdbffc7u, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0x44ffe8u, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0x22003du, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xffcbffa2u, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xaffb6u, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0x8002du, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xd0053u, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xffde0007u, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xffe4ffe5u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0x2dff9bu, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0xfff3ffc6u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xfff4ffeeu, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xffb1ffe0u, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0xffbfffdau, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0xfffdffdeu, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0xff8dffe4u, ataman_pack(col[71], col[70]), acc);
      orow[3] = ataman_clamp8(ataman_requant(acc, 1971432543, -8) + (-128), -128, 127);
      /* channel 4 */
      acc = -4567;
      acc = ataman_smlad(0x79ffcbu, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0x4afff6u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xfffd2u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0x70030u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xffa6ff81u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffbb002au, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffe10008u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffe0u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0x11ffabu, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xe0020u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xfffa0067u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xfffcfff3u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xffd6ffbdu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0xffd2ffffu, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0xffdaffb8u, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0xffebffa0u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0x20fffau, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0xffd10038u, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xffe1004eu, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xffea000du, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0xffe9002au, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0xffd80035u, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0xfff6001fu, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xfff9fffbu, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xfffcffbeu, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0x1ffc5u, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0x9003fu, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xffc8ffcfu, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xfffdffceu, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0xfff70023u, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0x45ffc4u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xffddffe5u, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xffdaff8bu, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0x80027u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0x1dfff5u, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0xffcc0015u, ataman_pack(col[71], col[70]), acc);
      orow[4] = ataman_clamp8(ataman_requant(acc, 1078934849, -7) + (-128), -128, 127);
      /* channel 5 */
      acc = -3446;
      acc = ataman_smlad(0xffdfffd1u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0x3002au, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0x2ffe8u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffcfffcau, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xffceffb5u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0x2b001au, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0x25ffdau, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffebfff5u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffba0003u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xffd20011u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0x2dfff6u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xffeb0046u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xffb1ffdcu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0xffef0045u, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0x90015u, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0xffe80032u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0xffbfffa7u, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0x17007fu, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xffeafffcu, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xffe6003bu, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0xffd0ffbeu, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0x4f003fu, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0xffee0032u, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xffe7ffbbu, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xffda002eu, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0xffe2fffau, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0x10ffd4u, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xfff9004bu, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xffd0ffd6u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0xffe70044u, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0x55ffc4u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xfffb0003u, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xffe4ff8du, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0xffb00028u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0xfff9000bu, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0x80023u, ataman_pack(col[71], col[70]), acc);
      orow[5] = ataman_clamp8(ataman_requant(acc, 1891826860, -8) + (-128), -128, 127);
      /* channel 6 */
      acc = -279;
      acc = ataman_smlad(0xffddffbfu, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0x56ffe4u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0x3afff9u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0x80003u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xf002eu, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffeffff1u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffe20011u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffd90034u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0x4ffdcu, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0x38ffe5u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffcb0026u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0x150013u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0x32000bu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0xffd9ffe6u, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0xffd2ffd6u, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0x2b0016u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0x2e0000u, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0xfff6ffebu, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xffb3fff7u, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xffd10028u, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0xffb5ffd1u, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0xfffbffdcu, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0x2fffe0u, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0x170004u, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xffecffd7u, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0xfffe3u, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xfff6ffe5u, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xff810008u, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xffd5ffb3u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0x11ffcfu, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0x49ffc4u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xcffc8u, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xe0019u, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0x13ffd4u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0xffb90017u, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0x190020u, ataman_pack(col[71], col[70]), acc);
      orow[6] = ataman_clamp8(ataman_requant(acc, 1983524194, -8) + (-128), -128, 127);
      /* channel 7 */
      acc = -3067;
      acc = ataman_smlad(0x2a001au, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0x14ffebu, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xffc8000cu, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffc9fffdu, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0x21fff1u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffd3ffb3u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffdffffdu, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffff001cu, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0x21002au, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0x33ffe5u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffe3000du, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xffd0ffd7u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0x190065u, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0xffe5ff81u, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0xfff8fffbu, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0xd0003u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0x4b002cu, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0xffe0ffd4u, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0x14ffd4u, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xfffafff1u, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0x48ffe6u, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0xfff1ffc1u, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0xffe3fff7u, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xffe1fff0u, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xffdfffebu, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0xffc1ffbcu, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xfff2fff9u, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xffe3ffd9u, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xffe5ffb4u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0x12ffd0u, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0x11001au, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xffb40008u, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xbffefu, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0xbffd8u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0x13ffefu, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0xffd5ffc9u, ataman_pack(col[71], col[70]), acc);
      orow[7] = ataman_clamp8(ataman_requant(acc, 1268941021, -7) + (-128), -128, 127);
      /* channel 8 */
      acc = -2273;
      acc = ataman_smlad(0x52ffb4u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xffc90005u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0x3ffdeu, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0x180038u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0x1effd2u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0x390029u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffdaff81u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xffa5ffeeu, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffe7ffbcu, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xffd10001u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xfffbfffeu, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xfffc000cu, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0x1bffafu, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0xffd70048u, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0xffe10060u, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0xffc3ffd7u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0x53ffc0u, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0x14ffd6u, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xffc8fff4u, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xffe9fffau, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0x40ffb0u, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0xffce0041u, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0xffeb0054u, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xffcaffe8u, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0x6ffe0u, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0xfffd9u, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xffefffbfu, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xffb0fff4u, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xffd9ffd0u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0xffcfffebu, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0x3d0042u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xffca0006u, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0x4bffb7u, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0x140009u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0xffe00003u, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0x34002cu, ataman_pack(col[71], col[70]), acc);
      orow[8] = ataman_clamp8(ataman_requant(acc, 2103946201, -8) + (-128), -128, 127);
      /* channel 9 */
      acc = -3315;
      acc = ataman_smlad(0xffa8fffau, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xffd50002u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0x34ffafu, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0x17fff4u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xffb00009u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffe4007fu, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xfff60027u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xfff8000eu, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffeeffdcu, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xffddffd6u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffedfff6u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0x140053u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xffd2ffd0u, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0x59ffe2u, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0x70018u, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0x30009u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0xffd8ffddu, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0x29000bu, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xafffcu, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0x4002bu, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0xffbdffc1u, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0x1ffffdu, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0xfff6ffe4u, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xffdc004du, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xffbffffdu, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0xffab000du, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xfffa001bu, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xffcffff4u, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xffe2ffd7u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0x1fffd0u, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0x1affd2u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0xffb0ffeau, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xffe5001cu, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0xffd40016u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0xaffe3u, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0xfffe001fu, ataman_pack(col[71], col[70]), acc);
      orow[9] = ataman_clamp8(ataman_requant(acc, 1816736287, -8) + (-128), -128, 127);
      /* channel 10 */
      acc = -5281;
      acc = ataman_smlad(0x36ffa3u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0xffd3ffccu, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0x1dfff1u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0x3c0011u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xffe5ffebu, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xffea002bu, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0xffd6007eu, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0x17ffbfu, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffe2ffb2u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0x52001au, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0xffabffc2u, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0x340013u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xffcfffc0u, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0xfffaffd9u, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0x18ffe0u, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0xfff6ffe0u, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0xffebffc0u, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0xffcaffb4u, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0x260055u, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xffccfffdu, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0xffe1ffb5u, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0x3bffe0u, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0x37ffe0u, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xffd4ffecu, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0x20016u, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0x39ffcfu, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xfff90025u, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xffc3ffedu, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xff81ffc3u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0xffffffddu, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0xffd3fff7u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0x6ffe7u, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xffe1ffc3u, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0xffc8ffc1u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0xffdfffddu, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0xfff4fffbu, ataman_pack(col[71], col[70]), acc);
      orow[10] = ataman_clamp8(ataman_requant(acc, 1887206710, -8) + (-128), -128, 127);
      /* channel 11 */
      acc = -1668;
      acc = ataman_smlad(0x2dfff8u, ataman_pack(col[1], col[0]), acc);
      acc = ataman_smlad(0x19fff3u, ataman_pack(col[3], col[2]), acc);
      acc = ataman_smlad(0xe0021u, ataman_pack(col[5], col[4]), acc);
      acc = ataman_smlad(0xffd60014u, ataman_pack(col[7], col[6]), acc);
      acc = ataman_smlad(0xffdaffe1u, ataman_pack(col[9], col[8]), acc);
      acc = ataman_smlad(0xfff1ffb6u, ataman_pack(col[11], col[10]), acc);
      acc = ataman_smlad(0x16fff7u, ataman_pack(col[13], col[12]), acc);
      acc = ataman_smlad(0xfffcffe0u, ataman_pack(col[15], col[14]), acc);
      acc = ataman_smlad(0xffd8ffe0u, ataman_pack(col[17], col[16]), acc);
      acc = ataman_smlad(0xc0001u, ataman_pack(col[19], col[18]), acc);
      acc = ataman_smlad(0x52001au, ataman_pack(col[21], col[20]), acc);
      acc = ataman_smlad(0xffcd0007u, ataman_pack(col[23], col[22]), acc);
      acc = ataman_smlad(0xffec000au, ataman_pack(col[25], col[24]), acc);
      acc = ataman_smlad(0x3cfffau, ataman_pack(col[27], col[26]), acc);
      acc = ataman_smlad(0x1b0009u, ataman_pack(col[29], col[28]), acc);
      acc = ataman_smlad(0x2e001fu, ataman_pack(col[31], col[30]), acc);
      acc = ataman_smlad(0xe0020u, ataman_pack(col[33], col[32]), acc);
      acc = ataman_smlad(0xffea0003u, ataman_pack(col[35], col[34]), acc);
      acc = ataman_smlad(0xfffc0004u, ataman_pack(col[37], col[36]), acc);
      acc = ataman_smlad(0xffd3000eu, ataman_pack(col[39], col[38]), acc);
      acc = ataman_smlad(0x2ffccu, ataman_pack(col[41], col[40]), acc);
      acc = ataman_smlad(0xfff40024u, ataman_pack(col[43], col[42]), acc);
      acc = ataman_smlad(0xfff50022u, ataman_pack(col[45], col[44]), acc);
      acc = ataman_smlad(0xffd9000cu, ataman_pack(col[47], col[46]), acc);
      acc = ataman_smlad(0xfff50012u, ataman_pack(col[49], col[48]), acc);
      acc = ataman_smlad(0x40007u, ataman_pack(col[51], col[50]), acc);
      acc = ataman_smlad(0xfff00014u, ataman_pack(col[53], col[52]), acc);
      acc = ataman_smlad(0xffd6ffdfu, ataman_pack(col[55], col[54]), acc);
      acc = ataman_smlad(0xffccff81u, ataman_pack(col[57], col[56]), acc);
      acc = ataman_smlad(0xfff7ffc4u, ataman_pack(col[59], col[58]), acc);
      acc = ataman_smlad(0x130015u, ataman_pack(col[61], col[60]), acc);
      acc = ataman_smlad(0x24ffeeu, ataman_pack(col[63], col[62]), acc);
      acc = ataman_smlad(0xffd20004u, ataman_pack(col[65], col[64]), acc);
      acc = ataman_smlad(0xfff80012u, ataman_pack(col[67], col[66]), acc);
      acc = ataman_smlad(0xffef0016u, ataman_pack(col[69], col[68]), acc);
      acc = ataman_smlad(0xffcf000au, ataman_pack(col[71], col[70]), acc);
      orow[11] = ataman_clamp8(ataman_requant(acc, 1244482163, -7) + (-128), -128, 127);
    }
  }
}

static void ataman_pool1(const int8_t* in, int8_t* out) {
  for (int oy = 0; oy < 8; ++oy)
    for (int ox = 0; ox < 8; ++ox)
      for (int ch = 0; ch < 12; ++ch) {
        int8_t best = -128;
        for (int ky = 0; ky < 2; ++ky) {
          int iy = oy * 2 + ky;
          for (int kx = 0; kx < 2; ++kx) {
            int ix = ox * 2 + kx;
            int8_t v = in[(iy * 16 + ix) * 12 + ch];
            if (v > best) best = v;
          }
        }
        out[(oy * 8 + ox) * 12 + ch] = best;
      }
}

static const int8_t ataman_fc0_w[10][768] = {
  {-7,0,21,54,-6,-42,-12,23,26,-28,-12,4,-10,3,-30,13,-19,-39,-9,-12,9,-43,-26,-1,-14,-22,2,12,12,-2,-11,-4,-55,-11,11,6,5,41,21,0,7,26,-13,10,52,-3,29,17,5,13,-9,10,-8,-14,18,3,2,6,18,26,37,8,27,29,-5,-7,-26,-17,-32,25,-4,18,25,2,8,33,-7,-4,-13,5,1,-10,9,-23,-33,23,18,33,-9,-29,-18,-6,23,-6,23,29,7,15,-19,22,-7,6,-13,27,18,-2,0,-3,-40,50,1,-19,-23,4,-11,11,70,-2,33,1,0,13,-9,37,-16,-13,17,6,-4,-23,2,-7,-18,14,20,4,-13,-12,19,75,38,-15,22,20,-6,-18,-8,19,-33,-14,-14,21,10,0,7,2,-3,11,-19,41,11,-1,6,8,-6,-39,25,25,-5,-1,2,19,-3,-17,21,10,79,-27,-21,-16,5,11,21,4,-22,-10,8,57,54,-13,4,-36,-22,-12,-7,-14,-40,-14,4,25,58,-10,9,-11,3,13,9,-12,27,-8,1,-18,17,-40,12,8,3,12,-15,9,10,18,-16,43,50,6,5,26,0,22,10,-1,-8,-21,9,33,27,19,26,-10,-2,27,-15,30,-11,-17,-28,15,-51,-6,-9,-6,-18,17,-1,-8,9,-6,1,41,41,-22,-29,27,-5,-2,13,-15,10,-18,15,48,52,-30,7,7,15,-22,23,-14,15,-2,-40,-21,-14,17,20,25,2,-4,17,3,-7,5,9,20,-3,-9,18,-3,15,42,-13,-24,-28,1,11,-3,29,-18,12,-6,9,-3,21,41,7,5,5,30,-4,1,-17,27,2,-22,-1,4,-17,-30,-2,76,38,-17,10,-5,-6,6,-7,4,15,-26,-6,-4,-13,-15,5,-13,29,23,8,17,-31,-20,5,25,-44,4,-2,14,-23,33,28,16,-46,-29,14,42,23,-33,-16,-5,-17,20,9,-3,11,-13,-17,-16,-28,-15,-27,27,-6,-18,5,7,3,7,19,36,37,-4,-1,-9,13,15,-49,12,16,-17,2,6,6,-9,12,7,-1,0,6,-13,-11,-14,23,49,48,-27,16,-22,-7,-17,4,19,-16,-45,21,65,73,-19,8,25,-12,14,-16,-1,-21,-26,-8,57,28,-24,1,-26,-7,17,-18,-23,28,-21,-5,36,9,-29,4,-34,-7,20,7,5,10,-9,-10,-14,36,7,13,-1,-22,8,9,5,15,-6,-25,32,-8,5,2,-5,16,-8,0,18,-25,-9,-10,-4,4,29,-7,-34,-26,-3,8,11,-7,-17,-11,-18,4,-32,-1,5,20,5,-16,-6,3,-2,-4,35,52,-19,22,7,6,15,13,10,22,-29,21,33,75,22,1,-22,-29,14,-3,-2,-1,-18,43,28,-3,5,7,-13,14,12,-21,30,-10,2,8,16,17,6,13,12,-8,-14,-17,8,31,17,-24,24,15,5,1,13,-18,-30,-12,7,-18,-7,26,18,-36,14,28,21,35,11,-12,21,-18,-12,10,5,80,-6,16,13,25,-13,13,2,9,-40,-6,7,67,-5,-12,-4,-29,29,-1,9,-26,-8,-17,-27,19,4,27,15,-1,-11,14,5,4,-21,-20,49,-10,2,41,22,-1,29,31,1,-16,14,29,38,18,8,33,-17,28,11,12,12,-5,3,-9,11,10,22,14,22,-13,6,-2,17,23,17,-4,15,41,-3,1,-41,-9,9,22,21,-18,5,-15,-2,11,-16,30,-18,26,2,3,-4,-38,11,-5,32,-17,31,-24,-11,-8,-5,17,19,-18,-16,17,20,45,-9,9,-2,-17,4,-29,-17,-31,-6,38,-30,-21,-12,27,-3,-4,-3,15,9,5,-34,-12,-19,51,-6,3,13,-12,3,27,20,20,-17,7,4,25,9,-2,-46,-21,-9,-12,5,-6,-22,14,-7,-23,-29,27,-7,-5,-24,2,-1,-11,-2,32,40,14,-32,-3,-3,-1,-15,17,35,-24,-15,4,-15,-5,-13,9,17},
  {25,-41,-14,0,18,10,16,-16,-61,-3,5,-7,-2,1,-17,24,-9,35,-4,-35,-28,14,2,9,-32,21,-8,6,-4,28,9,-2,-16,-5,-17,-4,18,-11,-15,5,-13,38,-12,-22,24,19,-21,3,13,-19,2,-29,14,-22,-3,9,31,8,13,-10,14,-24,-12,-7,-46,2,22,-4,18,0,15,21,-15,16,-5,9,-26,-13,-5,-13,6,-7,-18,-15,20,4,-10,-9,-12,11,-25,-6,7,9,-3,17,-4,-1,-6,2,11,41,-29,-12,9,4,-11,0,15,-9,-7,-4,24,24,8,-7,-31,-1,10,6,-11,6,-13,-6,11,4,10,-9,3,3,-6,-11,14,-3,-33,-24,-18,9,-6,-49,1,8,-8,2,5,13,-9,-9,-15,20,31,-28,-21,39,-3,-24,-13,-16,-23,-30,4,32,36,-23,20,-9,6,32,4,-13,13,3,-9,-11,7,-22,-18,-6,17,-2,-25,32,9,25,13,9,9,-13,15,29,7,-40,-5,-11,9,-13,32,24,4,4,0,-6,-15,21,1,-2,-4,9,-22,4,-10,-7,29,0,-15,-7,15,-37,-6,-6,-1,21,12,-4,-24,-7,-1,-5,10,0,-14,-32,30,13,9,-20,25,-7,14,-26,4,6,-2,10,25,9,-3,-39,7,35,-16,-2,21,5,12,34,3,50,-5,-29,-34,-12,17,-32,-4,4,1,-1,7,6,11,-26,-28,15,16,0,10,29,-24,-7,-10,16,-9,-6,9,-8,-14,-1,-4,21,-32,1,4,13,-17,34,-30,-16,16,-15,-9,-2,8,1,0,28,3,2,11,6,12,-10,-23,-3,-7,4,15,2,-6,-30,14,-14,-17,-24,3,2,15,-15,9,49,-8,-20,-33,9,7,26,-11,17,-25,-24,40,-4,-2,-30,-49,25,-25,-26,5,-5,-2,11,8,29,-5,2,-55,10,26,-19,-13,4,-9,-1,14,15,6,-9,19,-18,4,9,8,6,-12,-6,16,8,4,-14,8,2,-5,-11,-15,-40,12,-20,40,16,-8,-6,34,-3,-16,-16,0,8,5,40,27,23,7,-28,-13,-33,10,6,22,-9,-36,-13,42,25,17,15,-2,-19,-6,-8,11,1,-14,-12,17,5,-15,-34,-23,10,8,-18,13,17,13,-9,18,32,4,-23,-16,-29,11,-12,22,9,12,0,9,34,-17,2,-9,20,-15,8,3,-8,8,-22,14,31,-4,-23,-49,33,-20,-27,-12,-3,4,-11,24,55,-12,-25,-25,3,-36,-2,-10,-7,18,27,43,15,30,-5,0,0,-4,23,-5,3,-16,32,-13,63,-5,-5,-21,4,7,-29,-10,6,7,-31,32,8,-37,-14,15,19,-7,13,-16,9,-24,-24,27,49,-27,-49,18,-14,-24,15,9,-19,0,-20,22,29,0,8,-24,10,-6,-1,-2,-5,-5,-1,23,53,-1,-45,8,-7,5,24,0,16,-4,-20,3,24,4,0,7,-20,-28,-2,20,-21,-4,-2,-1,18,-11,-16,-32,-21,-9,-5,-14,1,-13,-18,25,-4,7,-17,-48,-15,-3,-16,9,9,5,-3,31,26,32,4,41,-5,14,-35,-16,-26,5,-5,2,10,-8,-41,7,-14,-4,-6,-1,-2,-14,10,30,37,-33,-2,38,-7,7,-10,-23,7,8,-8,13,5,20,-2,9,17,-3,-19,5,-16,-17,-46,1,66,19,-19,-41,21,4,-17,8,5,-37,-11,-8,24,24,-20,12,35,-3,-4,12,-19,3,2,12,26,-28,4,-11,-25,-14,-6,-29,13,-28,8,21,53,29,-53,11,11,29,-1,-8,10,-33,11,-13,14,2,-40,11,7,-20,-12,-5,2,-3,17,-9,40,-7,-46,26,-6,19,-15,28,-25,-20,11,-14,6,-24,-10,-26,35,-6,1,-3,-17,-28,0,-64,-8,-17,-20,-11,-6,-11,-5,-16,-13,-25,-10,14,7,-19,-27,43,15,34,13,-5,-4,5,-25,-19,16,-7,-51,2,12,5,-12,-30,-7,-1,2,31,7,5,-42,12,11,-7,21},
  {24,16,25,-4,-12,2,-12,-7,-48,7,-17,13,12,12,-7,-12,-30,-17,-16,-16,-33,5,-4,-1,13,33,-4,-7,-21,0,-18,1,-64,17,-46,-20,-15,-16,-22,-40,16,-5,-28,-25,-48,22,5,14,14,31,21,-17,-9,-6,15,10,-68,-23,16,0,-10,-4,8,-34,-31,5,-6,-14,-26,16,-21,5,10,2,-6,-4,21,-2,-22,3,-14,1,-4,21,24,24,23,-11,8,13,-13,38,-39,-12,-7,-3,18,2,-18,14,11,-9,2,30,-68,8,-22,8,16,11,9,-36,-16,27,-13,1,-44,18,-2,6,17,7,-7,-11,15,-5,13,-12,-41,-17,12,18,28,-29,7,-30,-9,-1,16,-18,-28,12,-28,4,37,-15,2,6,-18,4,-14,-23,-41,5,-44,6,25,25,-7,-1,-10,3,-4,-29,-55,0,-29,11,13,-6,14,-10,-21,-5,35,-30,-35,-11,-18,-26,-8,4,-6,-8,-20,23,10,-3,-36,1,-11,-9,50,6,13,-11,10,17,3,19,-29,2,-17,-18,-19,4,-1,-22,-30,-1,-15,16,-45,11,-20,12,-2,20,-9,5,-19,-7,7,-15,-52,-15,34,-14,11,15,-14,-35,-10,13,-10,-18,-64,16,6,-34,6,-31,-5,-2,4,9,-14,-12,-55,-7,-43,0,28,-11,-15,-16,-4,-45,-13,-17,-39,7,-6,-2,0,4,13,-2,2,-13,3,-9,-61,9,-6,7,30,-11,32,-6,1,10,4,3,-39,4,-3,0,2,-21,1,-11,18,-6,13,9,-40,-13,0,-8,26,-15,9,-6,-6,-22,13,0,-44,4,2,-10,16,-8,-4,-14,3,-11,13,-15,-44,14,5,-5,26,6,-24,-18,0,-25,-4,6,-54,10,4,2,14,-27,11,8,-11,1,1,-25,-46,19,-3,21,17,-26,12,-19,-22,-7,-22,2,-50,29,-16,-24,1,8,-9,1,-12,25,-2,-38,-78,0,-14,2,10,-5,1,22,-11,14,-43,12,-23,14,-8,10,13,15,6,12,-17,-4,-1,-44,-26,-15,-12,-29,34,11,26,-35,-31,-9,-1,-4,-54,6,-8,3,-4,-6,9,-9,-5,43,6,-5,-31,17,-23,11,20,43,-15,-2,-2,13,-4,4,-54,1,-39,1,0,6,4,-13,-25,-18,11,-10,-28,20,-15,-3,-11,9,0,-11,19,-11,10,-25,-53,4,-16,-1,7,-26,10,-17,-20,-9,14,5,-60,9,-6,-9,14,28,22,-25,1,14,-16,5,-24,7,-9,23,5,7,4,-35,-18,-7,-4,-7,-32,11,-21,-14,19,-5,31,-32,11,-29,-1,-11,-65,18,-18,-15,-1,25,13,-8,-17,-15,3,17,-47,15,-12,-26,23,4,10,-4,-12,-6,12,-8,-36,7,7,-12,15,-1,-1,-6,22,-4,3,-24,-38,8,-2,-22,-4,23,12,-4,7,-18,6,14,-82,-10,-29,34,17,-3,0,-34,-6,-14,-1,-11,-58,-10,-3,-10,45,19,-2,-6,-8,-18,28,-7,-42,23,-33,29,25,22,6,13,-11,25,17,-32,-29,-6,-2,10,21,15,-13,-7,34,14,-43,-8,-64,-4,-38,20,-2,-4,-5,7,-19,-1,-3,1,-47,1,1,-11,12,-22,11,-33,-14,-9,-14,-27,-53,23,-6,15,36,14,18,-23,-10,-24,-2,-8,-5,-38,-15,14,39,-41,2,-2,-4,-20,-9,-24,-54,8,-2,1,33,-16,8,-25,4,4,-34,21,-54,7,-23,-16,21,9,1,-22,11,17,12,2,-25,-12,-8,6,28,20,33,-11,8,-18,4,-19,-17,21,-50,-19,12,12,12,-29,-53,6,1,8,-52,27,-8,7,38,8,9,4,-31,5,25,8,8,2,-20,-11,30,9,-6,-24,-11,-5,-2,0,-21,31,-36,12,24,25,36,4,-4,-5,6,-10,-70,7,-12,3,8,26,-15,35,-14,7,0,2,-55,11,-32,-12,14,16,22,-13,-17,9,7,2,-9,-9,-20,-10,1,-15,-12,-24,-11,58,3,21,-25,19,-8,38},
  {29,10,2,-14,-3,-19,-4,-39,-27,30,19,3,-8,45,12,-6,44,6,-2,13,26,12,-12,0,-32,60,-1,16,-6,-8,13,15,63,-8,-10,-8,3,7,9,4,-5,-20,-6,-2,-36,5,19,1,-19,5,-3,11,0,-9,-11,16,-16,-1,28,-1,-10,21,-21,-4,-5,5,36,-5,14,16,23,-3,8,27,-7,-27,32,10,-6,11,13,2,-47,-17,34,6,10,17,34,-4,13,-11,-16,26,-11,-23,21,35,16,4,4,-36,-13,-8,47,-4,17,17,-4,25,18,-3,5,16,-10,-35,-1,40,14,-18,-16,26,19,5,40,-13,-16,-13,65,-33,-13,6,24,39,46,2,-7,-19,-16,-36,-13,-20,-1,-15,16,9,-33,13,23,15,16,-31,24,-1,2,-15,8,18,17,-6,9,2,-11,13,35,4,1,4,-12,14,23,0,6,6,-12,16,108,-8,17,10,-24,49,-1,2,1,11,15,-28,16,-11,-1,2,-16,-13,18,-31,3,6,23,14,-15,-2,-3,-24,4,20,-16,20,18,-24,5,19,49,7,-6,-20,26,-10,20,36,-16,-4,-6,-3,-10,-9,20,7,-3,-4,-2,20,35,-21,-18,-12,44,0,-11,22,19,-23,22,-11,23,-3,15,-23,16,-11,13,-17,-22,-12,23,8,-9,-12,0,-32,-28,-13,34,-21,26,13,1,-11,14,15,18,-21,48,-30,9,18,-30,22,19,23,-3,-16,4,-6,71,-33,52,6,11,0,26,-32,2,-33,20,-40,-17,-17,-22,-13,8,31,6,37,7,9,20,26,1,1,-14,-10,5,33,21,7,39,3,-18,-10,103,-19,23,-15,19,-2,18,-22,10,-32,-5,12,17,-9,-9,16,17,17,35,-1,-6,10,32,8,48,-30,-14,-1,-5,33,19,33,16,18,4,-3,88,-7,14,-15,-10,17,28,10,-11,11,-4,16,43,9,-2,-18,-8,26,-1,29,27,-31,20,0,45,34,23,-21,-8,-3,9,10,23,20,6,16,34,-8,0,19,-38,11,25,10,35,-26,-13,-3,48,-5,-7,14,24,25,1,3,5,-9,10,1,51,-50,6,27,-11,25,20,12,4,-17,1,-11,5,7,25,-22,-14,-14,-28,41,-27,-22,-17,-5,-17,-11,-2,-32,-11,33,-8,24,24,-30,-3,22,43,8,-9,-1,26,20,18,9,37,-20,-4,-42,12,-8,0,-8,5,12,7,50,12,-7,6,-4,18,-7,26,8,-23,22,9,-15,5,-5,-7,5,55,2,-4,-1,-5,11,32,49,25,-36,-29,5,52,-2,35,-9,36,18,32,4,-1,-24,35,-15,13,-7,-4,4,-1,28,11,1,11,-1,8,-3,67,10,17,-19,7,8,-17,-19,37,9,-6,-12,51,3,-10,-24,23,5,18,1,-16,10,-40,2,-31,7,-3,3,-16,-17,0,14,7,0,-9,30,19,24,5,3,-7,44,17,25,-15,-13,0,3,63,-11,8,2,-20,6,-4,10,28,-16,5,12,23,7,7,6,-3,39,-18,-24,-7,11,-16,-21,21,1,4,16,-25,28,4,-17,-1,14,14,-15,57,10,11,-6,-9,-11,28,-24,0,13,-12,-31,-5,-7,-32,8,6,24,19,35,30,21,-12,-19,6,-25,20,2,-30,23,41,-15,6,13,-9,19,32,28,1,11,-1,16,36,12,4,-17,-12,-15,44,-28,-6,-16,-3,17,45,10,5,-61,17,48,80,-11,42,-11,0,-15,3,-3,9,-4,45,-22,27,23,19,-45,10,0,11,21,3,-4,-9,-29,0,30,-12,0,4,48,-17,-3,57,10,-16,5,2,1,28,38,2,1,2,22,14,-30,-10,0,22,11,-16,14,-30,-19,16,3,4,-7,-10,-17,-5,-17,29,1,5,19,23,12,44,0,0,10,53,10,9,-17,-21,-1,14,2,-1,-14,22,-10,27,-21,17,20,25,5,51,-3,3,-34,-21,-10,1,16,45,-1},
  {2,-11,20,-27,-10,-20,-8,-1,-3,-3,-10,8,-19,20,-6,29,-6,-16,-5,-12,-16,22,24,-2,-19,-19,-11,11,-16,-23,-11,-19,-21,20,4,-4,-13,-17,0,-15,-49,-42,-22,22,-58,11,-17,29,28,-8,8,-18,-3,-7,-11,-9,-37,-10,-13,-21,5,-21,10,1,-3,-27,-2,24,12,2,8,19,-11,20,-12,-3,-6,6,20,7,12,-21,-12,-25,-11,-17,-13,-6,1,18,13,4,-5,-32,16,-13,-7,-19,10,-5,-12,-33,-32,-13,17,-16,23,-28,20,-12,-13,-11,-16,-14,18,12,-5,-39,3,-18,8,-14,12,35,-10,9,18,28,-42,9,13,8,-3,6,-36,8,-19,-24,14,36,-17,18,15,9,-3,17,-7,-8,-22,-70,15,10,-7,4,23,-9,-21,15,-2,13,-11,-8,-7,22,-12,3,-2,-13,0,1,-24,-23,-17,-3,-6,13,-29,-27,5,-8,-23,2,8,-12,1,-40,9,25,-20,-20,1,34,-22,16,4,16,0,-11,7,-7,-18,21,-2,-2,-16,26,4,14,-32,5,-11,5,-15,18,-6,12,-9,7,13,5,0,-27,7,20,-24,13,-5,9,29,-10,-25,-19,-2,-20,9,24,20,-16,-5,8,-1,-26,20,4,3,-24,-20,-3,2,-2,13,10,11,3,3,-9,0,-22,1,-10,-11,-17,0,5,22,3,-6,2,-2,-5,-4,27,17,-15,-42,-7,-13,20,14,-35,-52,-6,-3,21,10,-19,-27,-15,-3,6,13,5,38,-20,0,31,19,-14,38,-5,8,15,-1,4,-40,-13,-3,1,3,-9,-38,-15,16,-23,3,14,-25,-9,-17,26,-39,3,-11,-6,0,-13,-12,4,-35,-36,7,34,-7,0,-2,-7,-13,-17,-32,-15,0,-28,-19,13,-11,1,-9,16,8,-14,-18,20,-2,-36,9,23,-23,-21,-30,-3,-1,-16,-14,14,-10,-42,-9,6,-11,-7,-18,21,-30,10,-33,-30,-5,-15,-4,11,-24,-2,-25,34,-31,4,-3,5,-29,-16,-8,31,0,2,17,8,10,-3,-7,-19,-19,-25,17,10,0,26,28,-20,-7,8,-10,-9,43,-16,-8,24,24,3,-20,-40,-23,-24,-13,2,1,-32,7,0,-37,2,-7,-21,6,5,2,4,12,-23,-6,34,18,8,-16,-2,13,-14,-10,-4,11,-56,19,13,-32,6,-14,-22,-9,18,-4,-13,12,9,-9,1,-21,-29,23,-2,2,-21,-10,-1,-12,-22,-27,-2,-21,31,-5,-15,5,-34,-22,-17,4,5,30,13,65,33,4,-47,8,16,-37,12,-24,-23,10,6,0,26,-9,-35,18,-17,-25,12,-14,-37,3,20,-42,-12,-10,-15,13,5,-32,16,-23,-17,14,34,-52,21,-31,22,11,-6,-17,-7,-13,-16,3,20,-15,-9,-13,4,10,11,-15,14,2,-23,17,52,15,23,-24,-1,54,14,-16,-12,-5,-34,-11,-15,-14,23,-12,-5,-7,-15,-12,-4,-29,10,-1,13,0,11,-21,-4,2,13,8,13,-22,-34,-18,27,27,0,-21,-21,14,8,14,5,0,-16,-16,53,13,5,1,17,-8,6,2,4,-11,-11,-8,-4,-34,-13,16,17,-19,3,-23,-2,-26,-6,13,40,15,19,18,-2,-1,-25,-9,-16,-7,-11,-21,60,10,9,-11,-5,-25,-18,13,-15,-23,5,10,37,49,20,12,-34,19,-25,-14,24,6,-16,38,34,15,21,-24,31,1,4,-25,-13,-34,-7,7,22,0,-15,6,-5,-4,6,-20,13,-18,-15,7,57,14,-25,12,6,2,25,-5,8,-59,-23,-3,56,-22,11,-11,-50,-12,-6,62,-32,-43,-39,38,43,-43,-11,16,-21,48,-10,-2,-11,-6,-35,-10,32,2,-6,-34,-13,12,-9,6,-27,-11,-20,-31,58,-19,17,-24,25,8,-2,19,-14,-49,-15,-15,49,7,-13,6,20,3,10,-5,9,5,-52,-12,24,-51,-13,-36,4,24,17,20,6,-4,15,14,14,-7,-2,-8,-24},
  {9,-2,1,1,6,15,2,-13,37,-10,-16,23,-21,-29,-12,0,-30,8,-7,-36,-38,-7,0,-24,-12,-7,-5,-15,-1,0,-7,-2,-6,10,0,-8,-5,1,-22,14,-13,14,12,2,-22,6,11,4,-26,-6,14,15,-8,3,-10,2,-13,-1,-6,-7,-17,10,-8,9,8,21,4,-7,-37,8,2,-10,0,-2,13,-7,-23,20,-16,-1,33,6,2,-3,-27,-20,-14,-20,37,46,-10,-3,-20,-14,1,30,4,-16,4,15,24,35,0,-24,-24,-6,0,7,-1,-16,2,-10,13,-10,-29,-25,28,-12,4,-6,1,25,-3,17,26,36,-15,-18,5,32,-17,17,-1,-28,-7,7,-35,2,-6,23,0,-23,12,-12,12,-12,31,-6,-15,47,-1,-25,-23,-2,8,-6,-10,-26,7,28,-3,-1,8,-7,-7,16,36,27,0,-21,0,-7,23,26,8,-13,-25,35,-8,-5,7,-24,-19,10,-16,-3,-2,-10,-21,-21,-2,-4,-1,-11,8,-2,3,22,1,2,25,-1,-21,-7,-4,-4,19,-2,-10,17,-4,-35,-30,5,22,15,3,5,21,-24,2,36,-1,-40,-5,-18,-1,-1,-7,-1,6,-12,-12,62,-4,-13,-46,8,6,-1,-11,-4,2,-12,-11,47,9,-13,-60,23,4,6,24,-1,10,17,-1,29,-16,-28,-40,7,4,24,19,8,7,33,3,36,3,-6,-41,12,-6,-11,-1,21,-4,-7,-2,13,-4,-4,-39,15,3,-4,17,5,-2,39,41,-10,-3,-28,-7,12,12,20,5,2,-13,-10,5,23,7,-19,-76,-7,19,-9,-31,22,-22,-8,-4,43,11,-3,-10,5,15,-19,5,16,6,11,13,73,2,-15,-85,25,10,-11,3,-10,8,1,-39,37,13,-15,-39,3,-12,-8,-14,-7,-15,16,-22,42,-14,-11,-46,0,16,0,5,0,9,-18,-1,39,-28,-32,-42,15,-5,3,14,7,0,-19,20,3,-17,1,-23,12,11,10,6,-13,25,-9,-6,12,-10,0,-59,-5,9,-3,27,-23,-19,-10,-19,15,-12,18,-26,-13,-19,6,1,-10,10,1,-12,30,-18,-51,-37,13,18,18,-1,-5,3,-12,-27,21,-14,-36,-88,12,-1,6,15,-13,11,2,-9,31,-17,18,-43,-2,-13,-13,-10,-22,4,5,-4,17,-26,-19,-61,3,-8,0,22,-42,27,11,-4,23,-14,-5,2,-12,-23,-10,-5,44,11,-27,-9,-10,-11,-10,-17,-4,5,17,-11,15,5,-9,13,-18,-2,-44,-36,9,-7,11,38,23,9,-23,24,41,38,-26,-29,30,17,29,17,-26,1,-4,-18,13,15,-16,-63,-6,-11,17,8,21,9,5,-5,27,-9,-54,-52,22,5,22,-16,1,-1,-6,1,27,27,-31,-77,-6,-7,21,0,2,-1,24,-25,21,-10,-23,-55,14,4,9,16,-22,-2,-6,-5,18,-16,-21,-34,10,-12,-12,18,5,11,-19,-20,19,-14,6,-34,22,25,-1,11,2,-1,29,3,4,-18,-8,-23,-11,-20,-19,-16,-28,-16,4,3,-12,-10,-20,-28,8,4,-6,-29,-22,3,-11,1,11,3,11,-34,22,2,-22,-20,6,-5,5,-26,25,2,-21,-55,2,24,-10,38,2,-9,8,-11,13,26,-18,-36,0,8,-1,-9,-8,-20,1,-23,18,6,-6,-28,-8,-14,-9,0,-7,6,5,34,16,6,14,-6,-21,16,-8,3,2,-7,-9,-12,32,16,7,0,-2,7,39,-5,-6,-5,-9,20,6,-15,-35,-22,4,1,51,-17,-7,-9,10,-2,41,-21,-16,-2,-12,-22,-5,-14,9,1,-19,-25,28,-11,-27,-32,-26,22,-17,5,-6,15,1,-22,0,-9,-7,7,1,-29,-32,11,8,5,-12,9,19,11,-25,-60,-2,-11,-23,-4,4,-4,4,5,6,15,-19,-16,-4,36,-2,7,10,7,31,-10,-14,-17,26,-7,-20,1,-9,22,0,0,-13,-18,2,-5,0,2,6,3,6},
  {0,-3,-18,-8,-16,34,-4,-21,-57,9,12,-16,-8,-45,-15,18,-19,4,-11,-17,-12,1,-14,2,-26,-14,-19,1,-1,-2,-31,9,-15,22,-1,4,9,3,-40,-17,-19,-8,-10,19,-3,-2,-17,-15,-29,34,-27,-18,-5,-19,-1,2,33,24,4,5,-11,10,-11,13,-1,-21,20,-4,-2,16,13,-4,-15,16,-21,21,-3,-12,-14,-30,-30,-6,6,23,-4,-5,-18,-27,-10,-18,13,-34,-19,15,3,-14,4,21,-14,-2,-13,-10,8,-6,-3,-9,1,4,-12,1,6,-12,-7,8,-20,19,-21,14,12,0,-9,-20,-27,-9,-5,0,-22,-21,-49,-1,17,19,-29,-4,-17,9,12,20,-14,21,-5,2,10,-17,-6,-10,-52,-7,0,-15,-6,31,52,-34,-3,-15,-33,-29,-25,3,-42,27,-10,-6,-17,-2,-4,6,-33,-24,-1,-1,26,-16,-13,-29,-58,5,-1,10,-29,36,-11,-27,-7,-13,-7,-8,-68,-14,1,8,-24,4,-15,-23,-17,16,-12,3,29,-34,-27,35,12,0,-12,-16,-8,-12,2,-12,0,-28,-15,7,4,-1,-21,8,16,-30,8,-4,3,-21,-3,20,-4,-12,-40,10,12,19,14,12,42,-16,-40,45,-5,-29,14,2,-22,13,-13,28,104,2,-17,-15,-17,11,-14,2,3,-29,-19,-5,43,20,4,13,11,-9,-17,-23,-6,19,8,1,-21,9,1,-5,-8,-15,-1,-9,16,-28,14,-19,-2,-16,6,0,-1,4,-8,5,6,16,-15,27,13,26,-6,9,-8,-5,-51,-16,-2,-13,-11,43,45,-9,-9,-7,13,-2,14,-11,-24,-31,20,2,20,-20,-8,-12,2,-6,-40,2,9,-8,-2,36,109,-5,-26,6,-12,-1,-14,-3,-2,9,-8,52,72,-19,12,18,3,7,-25,3,9,6,13,33,56,-22,-2,3,-21,-7,-25,5,-4,-25,2,16,30,15,13,16,-6,20,-45,22,9,-22,19,-11,41,-10,-6,-40,-5,-6,-29,10,-45,-44,35,31,66,11,-28,-21,-35,11,-7,7,0,9,11,34,44,-12,7,9,-11,-19,-44,-20,-2,-1,-30,13,70,2,-40,-37,24,1,-50,-15,-4,-14,4,21,94,-8,-4,11,-26,-31,-26,24,17,19,25,18,127,-16,-15,15,-8,-22,-34,5,-16,-27,0,9,100,22,-5,-4,-8,-11,-43,27,1,-8,1,59,37,23,34,-43,9,0,-22,13,7,-23,3,44,29,7,-10,6,6,-5,-41,-4,-7,8,-7,-5,-16,-2,-13,-7,-10,-12,-8,31,44,17,-6,-13,-2,-9,0,-10,16,-7,-38,-4,3,5,6,63,44,5,-1,0,-24,-21,-59,7,16,-14,-41,12,97,-6,3,10,-11,-56,-5,5,6,-5,-25,10,85,-21,8,-16,4,-7,-19,-16,-10,-26,-1,9,61,-17,6,-25,-13,22,-25,30,4,-5,16,-15,-3,-29,3,9,-33,-5,-16,-6,31,-25,18,-2,-7,-12,15,-5,-4,2,-40,-11,-6,-8,2,-23,-41,15,-10,13,9,-20,-69,-13,-26,-19,31,-19,-62,3,-2,1,-12,-29,13,-22,40,-26,6,18,27,-12,-9,-11,10,-30,-24,-5,20,-27,27,48,78,-4,2,-25,-13,-19,-26,8,0,-35,-20,-6,25,31,-23,-2,8,10,-34,12,-31,-18,5,2,-6,31,-1,2,-4,-31,-27,-5,17,-13,-26,-15,-86,-5,-7,8,-13,-28,-52,2,4,-16,5,-6,-47,-2,16,-7,-25,18,-27,6,-36,5,-4,-64,-62,-12,-1,1,-15,-46,-9,0,53,0,-40,-24,-41,4,-7,-17,-20,-22,-13,14,5,7,-12,-21,27,-5,13,28,-35,-13,-1,4,2,-1,27,9,24,-48,-23,-18,-31,-12,-20,1,35,-6,4,-19,19,0,19,-3,-40,-15,-24,-6,33,-11,-11,-16,4,-2,22,-21,-14,-9,-53,-16,3,0,18,13,-9,-16,5,5,-27,-13,-16,-16,-6,-18,8,-21,-18,-5,-16,-19},
  {-15,7,17,-25,-23,3,-15,3,9,0,-10,-33,-6,25,2,17,0,-19,-2,-13,-17,11,-5,10,-22,5,-18,-32,3,-6,9,-4,12,27,-21,-14,-9,-9,-6,-28,17,23,-12,11,15,-9,13,6,22,4,8,-48,-1,-3,1,-34,17,7,-8,13,4,-26,-27,-19,-15,7,5,17,23,-42,6,-5,-2,-10,-5,-35,-7,-4,25,31,1,15,-20,23,30,15,31,16,20,26,-27,-8,19,2,-28,-29,-1,-6,-25,-3,5,-12,-11,2,16,28,-16,17,-5,-7,-15,-7,-5,-14,27,-27,31,26,-3,-23,-11,-10,8,6,-9,1,16,-23,57,-1,8,9,9,-1,18,-16,20,0,3,16,-1,-4,-22,1,16,22,-19,30,21,-14,-29,-4,12,17,-24,-8,13,4,-11,-27,-2,19,13,9,27,-18,-37,29,-16,-4,-6,12,-2,27,-3,8,-2,5,0,8,8,-10,1,6,3,-26,-14,-3,44,9,-35,-35,16,32,-13,29,-39,3,1,23,-15,9,-11,-10,9,1,-17,-29,2,-17,3,36,20,21,-18,3,-8,37,13,18,-18,-4,-2,-10,17,29,-3,2,16,7,-9,-16,-19,-4,12,27,-4,-26,10,-18,17,27,-14,-15,3,16,3,22,4,9,4,8,33,13,-21,-25,-11,-16,-25,-18,-7,-14,13,-22,9,-27,-15,-35,19,2,1,39,26,-13,-10,17,-4,9,-21,-5,7,-4,17,0,53,7,-23,-10,-13,-12,10,-8,-16,-11,-13,-12,4,-9,-5,3,-12,23,29,6,11,-4,1,-31,16,-3,-2,8,-21,-12,-5,-9,-9,27,-19,-23,21,0,-29,-7,25,-23,13,-9,-26,1,28,-12,-6,2,13,12,18,14,-8,-26,-5,25,-4,23,22,26,-10,-22,-26,0,-9,-1,-10,43,-8,23,-31,8,7,18,-4,9,20,10,5,15,-7,20,35,-17,-19,-2,6,34,20,1,-27,8,-13,1,32,-19,-20,20,2,2,40,-36,-16,-2,4,-3,-25,9,1,-13,-9,-30,15,-22,-3,9,-11,12,-8,-25,-26,-1,-16,-7,11,-7,-12,25,16,-12,-1,35,-6,6,7,0,-7,-6,-32,-29,30,-22,-16,-23,-29,-7,23,17,4,-24,24,9,16,13,-2,6,32,6,13,-9,-33,11,-24,21,10,12,-39,5,-11,29,7,0,-30,-20,22,18,-13,5,8,-11,0,11,6,11,-2,1,-1,12,11,26,28,7,-66,1,17,-13,-17,1,25,24,24,14,38,5,-22,-7,22,6,11,-10,27,31,-11,6,24,-13,-22,5,-6,12,2,-6,-21,-17,6,29,3,3,6,7,4,-15,-2,-16,-12,-6,7,-29,-24,10,-15,-10,-5,-1,-11,26,-6,2,-35,17,2,4,-15,-22,18,-5,20,-20,2,8,10,4,20,16,-13,10,6,39,-11,-4,18,17,-19,11,26,-6,-19,-18,15,6,6,10,-20,-3,26,6,13,2,35,-11,-16,17,-12,-8,23,33,5,12,14,-6,2,1,-20,-5,-14,2,-12,-8,0,38,1,7,-13,-1,9,-8,14,6,12,-16,5,31,18,-2,19,33,17,-17,-15,-27,19,6,-13,-19,12,16,-18,31,16,-15,3,-29,-1,11,-10,9,47,-18,-4,17,2,9,6,1,-1,15,-15,-10,6,13,-16,-5,-12,-11,-16,-21,-31,-5,-4,6,-4,7,-4,-6,14,10,15,6,2,15,-29,5,-13,8,-20,-7,13,-7,1,22,-27,8,-35,12,-22,23,-15,-16,15,37,1,16,-16,34,-3,26,13,17,26,-16,24,16,4,10,9,15,8,23,37,-15,-8,-11,15,-1,24,-13,20,21,-1,14,7,6,-25,-12,-4,-12,25,20,-9,6,-4,5,-4,-2,8,33,32,15,-15,8,-11,9,46,14,13,-6,-4,16,6,-8,18,14,28,16,12,-13,2,0,12,1,3,-9,-23,6,-16,52,-44,5,13,-10,23,-7},
  {-7,11,-9,-26,13,18,-2,3,-12,1,6,0,25,-8,-20,-13,10,-6,-21,22,-4,2,-42,-20,-39,5,-17,3,0,20,16,15,-4,18,20,-8,-38,2,3,-13,-11,-17,-30,1,-20,-11,2,-25,13,-36,-18,12,-5,4,-27,-15,-17,1,7,-1,-5,7,-4,-2,-21,24,-22,-4,-59,9,-12,24,24,-31,-29,25,-10,-2,1,-31,-35,13,-3,4,-29,-19,0,-38,-7,17,-20,12,-25,13,-8,35,-16,0,-1,-6,4,-9,21,-30,-16,-16,-14,-18,-3,-8,-9,10,30,-21,-19,-6,17,21,-15,13,-23,-19,-21,11,11,-20,-2,52,-4,0,-27,20,2,-1,8,-5,-10,-24,-5,5,-10,-35,-29,-42,27,3,-14,-37,-10,-8,4,26,-18,-2,-17,-13,-3,0,2,19,-10,18,-19,-1,-53,-9,-8,19,-23,-14,-29,6,10,16,1,-3,-56,-35,0,12,11,-3,-14,-3,15,19,28,10,-28,-6,-15,-9,28,22,7,-10,-10,9,17,-18,-21,29,14,-28,-25,-6,-1,-2,-9,28,19,-14,-21,0,-3,22,10,-21,7,14,5,17,9,15,0,-8,4,9,-6,5,-7,10,6,-4,-3,12,-11,-35,-13,-3,23,-5,-15,-12,10,-33,14,29,12,-18,23,14,23,2,-12,2,-18,4,-3,30,-12,3,-9,-8,21,17,26,6,-8,7,-5,22,-21,-12,8,-1,-2,5,-44,-15,6,-1,-1,2,-31,-20,8,-22,29,16,-2,30,-16,-10,-4,15,-15,7,-6,15,21,-34,-15,-1,-30,-13,20,4,-42,7,-16,44,-16,-32,-4,4,9,-11,22,4,-44,-6,-10,-2,29,-11,-19,10,13,-9,1,-4,-27,-3,-4,-14,28,14,-19,6,-9,-9,5,5,-32,-29,8,-9,-3,-23,14,29,-22,-13,-7,4,-42,-18,-8,8,-2,-5,-8,-9,4,-9,-6,-9,-31,13,-13,-18,10,-11,1,-15,19,-3,5,-3,-24,-7,-6,5,-12,-22,12,-1,-31,-2,-7,1,-24,15,3,-23,16,-12,8,8,-18,-20,1,-28,-49,6,30,-7,0,26,13,5,-19,-12,6,7,-65,-6,-20,43,9,-15,-25,3,10,-33,17,-1,-56,-15,17,10,7,24,-2,-4,-6,-14,30,-18,-33,-46,20,-8,-2,-40,6,1,-12,-18,37,-1,-59,20,-20,-13,5,-25,-25,-13,-8,4,7,-14,-20,12,5,-1,-11,-22,-10,-28,-21,15,-27,36,-54,-18,-12,-4,3,-16,-8,9,-5,-5,0,6,-2,-24,-14,23,-18,-29,-14,-3,10,-19,-16,23,-19,12,6,-28,19,11,-36,-7,-16,-35,-4,10,-19,-3,-24,-19,-39,-31,10,-3,-54,-16,-19,35,-15,3,-15,-12,-12,-19,-16,9,-38,-31,-20,-16,-42,38,-16,0,19,-24,6,-8,-18,3,9,27,4,-10,10,2,2,36,-5,-27,2,15,-33,-9,-58,-14,-25,23,4,-18,-34,-22,5,3,19,15,-47,-12,-14,-28,6,-4,-17,15,0,-2,-16,17,-11,4,-8,18,-27,1,-20,10,-13,-26,-18,23,-6,-6,25,-11,-29,-22,-28,-22,0,-30,-10,-3,20,-25,0,-11,0,-31,-35,-9,14,-34,-14,-5,-29,9,-41,5,-8,-53,-17,14,5,-13,13,-18,-50,4,8,-21,1,-3,-22,-7,0,-18,-17,9,-42,-9,24,-15,-9,-11,-10,-15,20,-29,-7,-2,-40,7,-21,17,-24,-17,-4,15,4,-19,7,27,-25,-26,5,-13,11,4,13,4,-13,-29,-27,-16,-14,-11,-18,2,6,-21,-26,15,-20,6,20,10,-15,-20,-5,8,20,22,-32,-9,-4,-30,0,82,-19,1,-10,-7,-5,-24,-44,-9,-5,23,18,-9,-24,-30,18,-20,-15,-31,-13,0,-28,1,-9,31,-14,-33,2,14,-2,-2,-15,-24,-46,7,-36,-7,-25,-9,8,-2,-56,-17,-14,-1,12,-6,-13,23,18,-40,-18,4,-30,-6,1,-3,-5,-6,10,28,-33,0,27,-29},
  {-7,9,4,-5,-12,20,-22,2,22,4,42,34,-2,-35,8,-6,29,-18,1,7,22,-7,19,-2,-11,-2,-1,-35,-31,5,-8,-3,21,3,-3,-27,6,-10,10,-15,8,28,36,16,38,15,-1,7,11,-17,9,5,-3,20,23,-32,41,-9,-9,18,3,-9,15,38,27,16,-35,-22,25,-24,6,3,-21,-8,-35,-50,-5,-10,24,-33,49,15,-28,-1,6,-6,-14,8,23,17,5,-23,0,11,-9,-10,-7,17,-14,-15,38,1,-12,-39,-11,4,10,-1,-11,-11,30,-2,37,15,-6,-13,-7,31,17,-19,-21,-10,-6,7,-20,33,14,-26,3,-21,22,-6,13,24,23,-2,34,23,-19,0,26,5,-9,2,27,7,-7,2,-7,-4,16,-5,18,-14,-9,5,-31,3,32,-8,20,-12,11,13,20,21,25,2,-24,-25,21,-15,12,9,-1,10,34,13,-14,-5,-10,9,13,47,5,-6,8,-3,-8,-5,27,16,-26,12,18,8,39,30,-4,-7,16,-4,26,18,0,8,18,-1,9,25,-17,-24,-6,-10,-19,17,4,13,11,8,21,31,-17,-32,4,9,4,-32,-9,-9,12,11,18,11,27,-26,6,-8,-15,-5,-7,1,4,-2,-24,18,-7,-4,-4,27,43,18,11,2,17,2,-1,24,-2,33,63,-2,9,-33,-3,-9,0,-9,13,38,-21,-15,70,14,10,20,-20,23,-12,11,-2,32,2,-21,-20,-10,-19,7,-7,-3,1,-26,25,44,7,-9,-20,10,-31,16,-14,-10,-7,-5,-9,7,-16,-18,-26,12,7,7,10,-29,4,37,21,36,-22,-39,11,-14,-6,-3,-27,-12,21,26,18,-9,-7,-50,41,-18,-22,-6,-52,29,21,-10,12,-4,19,-42,23,5,29,45,-17,-17,2,17,16,5,-6,-40,8,-23,30,6,13,-24,16,26,13,27,2,-4,56,14,43,-13,11,19,17,-18,29,-12,-22,-18,-31,-9,-4,42,-20,0,18,-21,-20,6,5,-14,6,10,-24,-36,-8,19,42,22,14,24,-14,-4,64,7,6,-9,-4,21,-13,22,35,16,2,-14,6,-1,27,-8,8,-8,-19,-19,22,4,-4,-14,-9,-4,-23,17,13,-35,0,43,17,-11,0,-9,37,11,32,32,-7,-3,-1,-8,15,3,-4,-6,45,-14,20,-27,-7,6,-4,-2,9,17,48,-13,28,-20,31,10,16,26,25,-6,8,-13,11,-4,31,15,2,9,-12,-27,26,21,-33,3,-7,-7,25,-17,25,-18,8,-28,13,-19,12,32,-6,-14,48,-18,-2,-4,-1,-4,-2,6,19,-4,21,8,10,-11,25,7,32,9,37,26,25,32,8,-8,0,-10,13,34,-32,16,20,24,24,-2,-7,-9,-29,-9,14,6,-10,-1,-1,24,21,7,-19,19,16,-4,7,4,-14,17,19,15,-18,7,0,-12,-2,-19,-2,8,14,19,-1,18,4,12,-23,-14,47,1,-10,12,-14,-5,-7,15,-27,-18,16,7,15,-10,-22,9,3,9,40,26,13,26,-6,10,23,-7,-3,24,-3,-2,18,-21,18,29,0,-23,-18,8,-2,-20,-3,7,29,-10,-12,30,-10,-33,15,26,15,-9,-5,-16,23,21,25,9,25,-27,23,-12,31,-27,-22,-25,-8,-7,17,-18,-16,1,-11,26,3,1,-22,24,9,34,26,5,-3,-25,27,9,10,-25,3,33,7,4,0,12,32,13,11,26,-3,-25,-25,-13,-10,11,22,-5,11,-7,45,15,39,31,-4,15,-2,44,-8,-8,12,-22,56,20,10,-12,-31,4,31,22,6,12,5,-30,17,11,3,6,-23,-4,15,-46,-2,34,17,-35,8,-3,2,-8,1,-10,4,7,48,2,15,-74,50,-9,15,26,9,16,18,-6,10,50,-19,-34,-24,26,7,0,-21,27,-3,-6,-21,-8,9,-38,22,4,-2,10,-7,-7,32,32,9,5,-11,6,43,30,13,1},
};
static const int32_t ataman_fc0_b[10] = {-34978,-2853,46154,-40576,17187,26549,-43578,14782,38404,-21092};
static void ataman_fc0(const int8_t* in, int8_t* out) {
  for (int o = 0; o < 10; ++o) {
    int32_t acc = ataman_fc0_b[o];
    for (int i = 0; i < 768; ++i)
      acc += ((int32_t)in[i] - (-128)) * ataman_fc0_w[o][i];
    out[o] = ataman_clamp8(ataman_requant(acc, 2100678719, -12) + (28), -128, 127);
  }
}

const int ataman_num_classes = 10;

void ataman_run(const uint8_t* image, int8_t* logits) {
  static int8_t ataman_arena[11264];
  for (int i = 0; i < 3072; ++i)
    ataman_arena[0 + i] = (int8_t)((int32_t)image[i] + (-128));
  ataman_conv0(ataman_arena + 0, ataman_arena + 3072);
  ataman_pool0(ataman_arena + 3072, ataman_arena + 0);
  ataman_conv1(ataman_arena + 0, ataman_arena + 3072);
  ataman_pool1(ataman_arena + 3072, ataman_arena + 0);
  ataman_fc0(ataman_arena + 0, ataman_arena + 3072);
  memcpy(logits, ataman_arena + 3072, 10);
}
