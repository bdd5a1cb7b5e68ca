"""Architectural state of the simulated ATmega328P.

Data-space layout follows the real part:

====================  =======================
``0x0000 - 0x001F``   register file r0..r31
``0x0020 - 0x005F``   64 I/O registers
``0x0060 - 0x00FF``   extended I/O
``0x0100 - 0x08FF``   2 KiB internal SRAM
====================  =======================

``SPL``/``SPH`` live at I/O ``0x3D``/``0x3E`` and ``SREG`` at I/O ``0x3F``;
reads and writes through data space stay coherent with the dedicated
accessors (:attr:`CpuState.sp`, :attr:`CpuState.sreg`).
"""

from __future__ import annotations

from typing import List

__all__ = ["CpuState", "DATA_SPACE_SIZE", "IO_BASE", "SRAM_START", "SREG_BITS"]

#: SREG bit indices by flag letter.
SREG_BITS = {"C": 0, "Z": 1, "N": 2, "V": 3, "S": 4, "H": 5, "T": 6, "I": 7}

DATA_SPACE_SIZE = 0x0900
SRAM_START = 0x0100
IO_BASE = 0x0020
_SPL = IO_BASE + 0x3D
_SPH = IO_BASE + 0x3E
_SREG_ADDR = IO_BASE + 0x3F
RAMEND = DATA_SPACE_SIZE - 1


class CpuState:
    """Registers, SREG, data space and program counter of the core."""

    __slots__ = ("data", "pc")

    def __init__(self) -> None:
        self.data = bytearray(DATA_SPACE_SIZE)
        self.pc = 0  # word address into flash
        self.sp = RAMEND

    # -- register file ----------------------------------------------------
    def reg(self, index: int) -> int:
        """Read general purpose register ``r<index>``."""
        return self.data[index]

    def set_reg(self, index: int, value: int) -> None:
        """Write general purpose register ``r<index>`` (wraps to 8 bits)."""
        self.data[index] = value & 0xFF

    def reg_pair(self, low: int) -> int:
        """Read 16-bit pair ``r<low+1>:r<low>``."""
        return self.data[low] | (self.data[low + 1] << 8)

    def set_reg_pair(self, low: int, value: int) -> None:
        """Write 16-bit pair ``r<low+1>:r<low>``."""
        self.data[low] = value & 0xFF
        self.data[low + 1] = (value >> 8) & 0xFF

    # Pointer registers.
    @property
    def x(self) -> int:
        return self.reg_pair(26)

    @x.setter
    def x(self, value: int) -> None:
        self.set_reg_pair(26, value & 0xFFFF)

    @property
    def y(self) -> int:
        return self.reg_pair(28)

    @y.setter
    def y(self, value: int) -> None:
        self.set_reg_pair(28, value & 0xFFFF)

    @property
    def z(self) -> int:
        return self.reg_pair(30)

    @z.setter
    def z(self, value: int) -> None:
        self.set_reg_pair(30, value & 0xFFFF)

    # -- stack pointer and SREG (I/O mapped) -------------------------------
    @property
    def sp(self) -> int:
        return self.data[_SPL] | (self.data[_SPH] << 8)

    @sp.setter
    def sp(self, value: int) -> None:
        self.data[_SPL] = value & 0xFF
        self.data[_SPH] = (value >> 8) & 0xFF

    @property
    def sreg(self) -> int:
        return self.data[_SREG_ADDR]

    @sreg.setter
    def sreg(self, value: int) -> None:
        self.data[_SREG_ADDR] = value & 0xFF

    def flag(self, name: str) -> int:
        """Read one SREG flag by letter (``"C"``, ``"Z"``, ...)."""
        return (self.sreg >> SREG_BITS[name]) & 1

    def set_flag(self, name: str, value: int) -> None:
        """Write one SREG flag by letter."""
        bit = SREG_BITS[name]
        if value:
            self.sreg |= 1 << bit
        else:
            self.sreg &= ~(1 << bit) & 0xFF

    def set_flags(self, **flags: int) -> None:
        """Write several SREG flags, e.g. ``set_flags(Z=1, C=0)``."""
        sreg = self.data[_SREG_ADDR]
        for name, value in flags.items():
            bit = 1 << SREG_BITS[name]
            sreg = sreg | bit if value else sreg & ~bit
        self.data[_SREG_ADDR] = sreg & 0xFF

    def write_flags(self, mask: int, bits: int) -> None:
        """Replace the SREG bits in ``mask`` by ``bits`` in one write."""
        self.data[_SREG_ADDR] = (self.data[_SREG_ADDR] & ~mask & 0xFF) | bits

    # -- data space --------------------------------------------------------
    def load(self, address: int) -> int:
        """Read a data-space byte (registers/I/O/SRAM unified)."""
        return self.data[address % DATA_SPACE_SIZE]

    def store(self, address: int, value: int) -> None:
        """Write a data-space byte."""
        self.data[address % DATA_SPACE_SIZE] = value & 0xFF

    # -- I/O space (offset addressing used by IN/OUT/SBI/CBI) ---------------
    def io_read(self, io_address: int) -> int:
        """Read I/O register ``io_address`` (0..63)."""
        return self.data[IO_BASE + io_address]

    def io_write(self, io_address: int, value: int) -> None:
        """Write I/O register ``io_address`` (0..63)."""
        self.data[IO_BASE + io_address] = value & 0xFF

    # -- stack ---------------------------------------------------------------
    def push_byte(self, value: int) -> None:
        """Push one byte; SP post-decrements as on real AVR."""
        self.data[self.sp % DATA_SPACE_SIZE] = value & 0xFF
        self.sp = (self.sp - 1) & 0xFFFF

    def pop_byte(self) -> int:
        """Pop one byte; SP pre-increments."""
        self.sp = (self.sp + 1) & 0xFFFF
        return self.data[self.sp % DATA_SPACE_SIZE]

    def snapshot_regs(self) -> List[int]:
        """Copy of r0..r31 (handy in tests)."""
        return list(self.data[:32])
